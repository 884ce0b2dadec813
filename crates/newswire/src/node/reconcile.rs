//! Anti-entropy reconcile (DESIGN §7): the article logs and the stubs they
//! vouch with, the digest riders leaf mates trade on gossip, and the one
//! pull in flight — whom a gossip round asks, what a reply vouches for and
//! settles, and whom a pass asks next. The node sends, sets the timers,
//! admits what a reply ships and counts; every decision is here.

use std::collections::BTreeMap;
use std::mem::size_of;
use std::num::NonZeroU32;
use std::sync::Arc;

use amcast::{BaselineHint, RangeSummary, SeqLog};
use astrolabe::{Agent, AttrValue};
use newsml::{ItemId, NewsItem, PublisherId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use simnet::heap::btree_map_bytes;
use simnet::{NodeId, SimDuration, SimTime, TimerId};

use super::{prefer_unsuspected, row_id};
use crate::cache::MessageCache;
use crate::persist;
use crate::wire::{LogDigests, NewsWireMsg, SignedItem, Stub};

/// Most entries (items plus withheld stubs) one reconcile reply carries.
const RECONCILE_BATCH: usize = 64;

/// How long a reconcile request waits for its reply. A peer silent that
/// long vouched for nothing, and the pass asks the next one
/// ([`PendingReconcile::unanswered`]).
pub(super) const RECONCILE_REPLY_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Entries retained per per-publisher article log.
const ARTICLE_LOG_CAPACITY: usize = 8192;

/// Most peers one reconcile pass asks, the first included, about holes the
/// peers before them could not vouch for.
pub(super) const MAX_ASKED: usize = 4;

/// How long the article logs stay quiet before a hole-free node asks a
/// cross-zone peer for what lies past them; each ask that turns up nothing
/// doubles the wait.
const TAIL_PROBE_QUIET: SimDuration = SimDuration::from_secs(10);

/// What an article log records about a seq it has seen — what the node can
/// vouch for when a reconcile peer asks about it (DESIGN §7). Four bytes:
/// every seq of every log pays for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEntry {
    /// The article entered this node's cache. While the cache holds it, it
    /// is served (or withheld) on its merits; once fused into a newer
    /// telling or evicted, the node vouches for it as gone to anyone.
    Held,
    /// Settled without the article — a reconcile peer withheld it, or this
    /// node saw it but may not hold it. The stub is all the node vouches
    /// with, and only to a requester whose summary it rejects.
    NotForMe(StubId),
}

/// A not-for-me entry's stub, by its place in the node's stub table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StubId(NonZeroU32);

/// One copy of each distinct stub the node's article logs refer to. The
/// tellings of one story share a stub, and so do articles of one category
/// and topic, so the table grows with the publishers' vocabulary, not with
/// the feed.
#[derive(Debug, Default)]
struct StubTable {
    /// The stubs, by id: `stubs[i]` is `StubId(i + 1)`'s.
    stubs: Vec<Stub>,
    /// Every id, sorted by the stub it names, so a lookup searches the
    /// stubs themselves and no stub is held twice.
    by_stub: Vec<StubId>,
}

impl StubTable {
    fn intern(&mut self, stub: Stub) -> StubId {
        let at = match self.by_stub.binary_search_by(|&id| self.get(id).0.cmp(&stub.0)) {
            Ok(at) => return self.by_stub[at],
            Err(at) => at,
        };
        let n = u32::try_from(self.stubs.len() + 1).expect("fewer than 2^32 distinct stubs");
        let id = StubId(NonZeroU32::new(n).expect("one past an index is not zero"));
        self.stubs.push(stub);
        self.by_stub.insert(at, id);
        id
    }

    fn get(&self, id: StubId) -> &Stub {
        &self.stubs[id.0.get() as usize - 1]
    }

    fn clear(&mut self) {
        self.stubs.clear();
        self.by_stub.clear();
    }
}

/// A reconcile request to send: whom, about which publisher's holes, and
/// who this pass asked before.
#[derive(Debug)]
pub(super) struct Ask {
    pub(super) peer: NodeId,
    pub(super) publisher: PublisherId,
    /// The inclusive ranges to ask about, besides the tail.
    ranges: Vec<(u64, u64)>,
    /// Peers this pass asked before `peer`, about the same holes.
    asked: Vec<u32>,
    /// True when the peer was chosen because its *gossiped digest* vouched
    /// coverage for our holes (as opposed to a blind cross-zone ask) — an
    /// empty reply then contradicts the advertisement.
    via_digest: bool,
}

/// One outstanding reconcile request awaiting its `ReconcileReply`.
#[derive(Debug)]
pub(super) struct PendingReconcile {
    ask: Ask,
    /// The tail mark requested: everything at or past it.
    tail_from: u64,
}

impl PendingReconcile {
    /// True when the request asked about `seq`.
    fn requested(&self, seq: u64) -> bool {
        seq >= self.tail_from || self.ask.ranges.iter().any(|&(lo, hi)| lo <= seq && seq <= hi)
    }

    /// True when a reply with `summary` and neither items nor stubs belies
    /// the gossiped digest the peer was chosen by: the advertisement and the
    /// reply cannot both be honest (split-brain lying looks exactly like
    /// this).
    pub(super) fn belied_by(
        &self,
        summary: &RangeSummary,
        items: &[SignedItem],
        withheld: &[(u64, Stub)],
    ) -> bool {
        self.ask.via_digest && items.is_empty() && withheld.is_empty() && summary.is_empty()
    }

    /// The same request again, to the same peer, about `ranges`: a new
    /// pass.
    pub(super) fn again(self, ranges: Vec<(u64, u64)>) -> Ask {
        let Ask { peer, publisher, .. } = self.ask;
        Ask { peer, publisher, ranges, asked: Vec::new(), via_digest: false }
    }

    /// Who is asked next about `holes`, which this request's peer could
    /// not vouch for: a representative of this node's leaf zone not yet
    /// asked — the one that handed an article on kept it — else a
    /// cross-zone representative. A pass asks at most [`MAX_ASKED`] peers.
    pub(super) fn follow_up(
        self,
        holes: Vec<(u64, u64)>,
        agent: &Agent,
        suspect: &dyn Fn(u32) -> bool,
        rng: &mut SmallRng,
    ) -> Option<Ask> {
        let Ask { peer, publisher, mut asked, .. } = self.ask;
        asked.push(peer.0);
        if asked.len() >= MAX_ASKED {
            return None;
        }
        let mut reps: Vec<u32> = super::zone_reps_at(agent, 1)
            .map(|reps| reps.iter().filter_map(|&r| u32::try_from(r).ok()).collect())
            .unwrap_or_default();
        reps.retain(|r| *r != agent.id() && !asked.contains(r));
        prefer_unsuspected(&mut reps, suspect);
        let peer = match reps.as_slice().choose(rng) {
            Some(&rep) => NodeId(rep),
            None => cross_zone_peer(agent, suspect, rng).filter(|p| !asked.contains(&p.0))?,
        };
        Some(Ask { peer, publisher, ranges: holes, asked, via_digest: false })
    }

    /// The follow-up after this request's peer never answered: a silent
    /// peer vouched for nothing, so the next peer is asked all it was.
    pub(super) fn unanswered(
        self,
        agent: &Agent,
        suspect: &dyn Fn(u32) -> bool,
        rng: &mut SmallRng,
    ) -> Option<Ask> {
        let holes = self.ask.ranges.clone();
        self.follow_up(holes, agent, suspect, rng)
    }
}

/// What a reply settled ([`Reconcile::settle`]).
#[derive(Debug)]
pub(super) struct Settled {
    /// A stub the own interest admits: the responder claims a test it did
    /// not run.
    pub(super) contradicted: bool,
    /// Holes asked about that the reply did not vouch for.
    pub(super) unvouched: Vec<(u64, u64)>,
    /// The reply moved the log's mark, and the responder is still ahead of
    /// it (the reply was cut).
    pub(super) behind: bool,
}

/// The reconcile component of one node.
#[derive(Debug)]
pub(super) struct Reconcile {
    /// Per-publisher article logs: which sequence numbers this node has
    /// *seen* (cached, or settled as not for it), and what it can vouch for
    /// about each. Gaps are the holes anti-entropy reconciliation pulls.
    article_logs: BTreeMap<PublisherId, SeqLog<LogEntry>>,
    /// The stubs the article logs' not-for-me entries refer to.
    stubs: StubTable,
    /// How many stub positions one filter group spans.
    group: usize,
    /// This node's digest rider, rebuilt from the article logs once per
    /// gossip tick; every gossip message to a leaf mate carries it.
    ae_digests: Option<LogDigests>,
    /// The last digest rider each leaf mate sent, by node id, with the
    /// version of the mate's leaf row when it came: what hole detection,
    /// the epoch vote and the recovery check read. At most one entry per
    /// leaf-zone member.
    leaf_digests: BTreeMap<u32, (u64, LogDigests)>,
    /// When a blind cross-zone ask for the tail of a hole-free log is next
    /// due, and the wait after it: a whole leaf zone that missed a
    /// publisher's newest article has no neighbour ahead to reveal it.
    /// Anything newly logged restarts the wait at [`TAIL_PROBE_QUIET`].
    tail_probe: (SimTime, SimDuration),
    /// Outstanding reconcile request, at most one in flight, with its wait
    /// timer.
    pending: Option<(PendingReconcile, TimerId)>,
    /// Round-robin cursor over publishers for reconcile target selection.
    cursor: usize,
}

impl Reconcile {
    /// An empty component whose stubs are tested `group` positions at a
    /// time.
    pub(super) fn new(group: usize) -> Self {
        Reconcile {
            article_logs: BTreeMap::new(),
            stubs: StubTable::default(),
            group,
            ae_digests: None,
            leaf_digests: BTreeMap::new(),
            tail_probe: (SimTime::ZERO + TAIL_PROBE_QUIET, TAIL_PROBE_QUIET),
            pending: None,
            cursor: 0,
        }
    }

    /// The per-publisher article log, when anything from `publisher` has
    /// been seen.
    pub(super) fn log(&self, publisher: PublisherId) -> Option<&SeqLog<LogEntry>> {
        self.article_logs.get(&publisher)
    }

    /// Every article log, in publisher order.
    pub(super) fn logs(&self) -> impl Iterator<Item = (PublisherId, &SeqLog<LogEntry>)> + '_ {
        self.article_logs.iter().map(|(p, log)| (*p, log))
    }

    /// Publishers with a non-empty article log, in id order.
    pub(super) fn logged_publishers(&self) -> impl Iterator<Item = PublisherId> + '_ {
        self.article_logs.keys().copied()
    }

    /// `publisher`'s log epoch; 0 with no log.
    pub(super) fn epoch(&self, publisher: PublisherId) -> u32 {
        self.article_logs.get(&publisher).map_or(0, |l| l.epoch())
    }

    /// `publisher`'s log's high-water mark; 0 with no log.
    pub(super) fn next_seq(&self, publisher: PublisherId) -> u64 {
        self.article_logs.get(&publisher).map_or(0, |l| l.next_seq())
    }

    /// True when `id` has been seen.
    pub(super) fn logged(&self, id: ItemId) -> bool {
        self.article_logs.get(&id.publisher).is_some_and(|log| log.contains(id.seq))
    }

    /// True when `interest` admits the article `stub` stands for.
    pub(super) fn admits(&self, interest: &[u16], stub: &Stub) -> bool {
        stub.admitted_by(interest, self.group)
    }

    /// Records that `id` has been seen at `now`: taken into the cache, or,
    /// with the `stub` it stands for, settled as not for this node. A seq
    /// already logged keeps its entry: a stub that later meets its article
    /// in the cache only means the node vouches for less once it is gone.
    pub(super) fn log_seen(&mut self, id: ItemId, stub: Option<Stub>, now: SimTime) {
        let entry = stub.map_or(LogEntry::Held, |stub| LogEntry::NotForMe(self.stubs.intern(stub)));
        if self.log_mut(id.publisher).insert(id.seq, entry) {
            self.tail_probe = (now + TAIL_PROBE_QUIET, TAIL_PROBE_QUIET);
        }
    }

    /// `publisher`'s log, begun empty if there is none.
    fn log_mut(&mut self, publisher: PublisherId) -> &mut SeqLog<LogEntry> {
        self.article_logs.entry(publisher).or_insert_with(|| SeqLog::new(ARTICLE_LOG_CAPACITY))
    }

    /// Moves `publisher`'s log to `epoch`, which wipes it.
    pub(super) fn adopt_epoch(&mut self, publisher: PublisherId, epoch: u32) {
        self.log_mut(publisher).adopt_epoch(epoch);
    }

    /// Poisons `publisher`'s log: moves it to `epoch` and claims seqs
    /// `0..entries` held. False, and nothing done, when the log is at
    /// `epoch` or past it already.
    pub(super) fn forge_epoch(&mut self, publisher: PublisherId, epoch: u32, entries: u64) -> bool {
        let log = self.log_mut(publisher);
        if epoch <= log.epoch() {
            return false;
        }
        log.adopt_epoch(epoch);
        for seq in 0..entries {
            log.insert(seq, LogEntry::Held);
        }
        true
    }

    /// Replaces `publisher`'s log with one at `epoch` holding `held`.
    pub(super) fn rebuild_log(
        &mut self,
        publisher: PublisherId,
        epoch: u32,
        held: impl Iterator<Item = u64>,
    ) {
        let mut rebuilt = SeqLog::new(ARTICLE_LOG_CAPACITY);
        rebuilt.adopt_epoch(epoch);
        for seq in held {
            rebuilt.insert(seq, LogEntry::Held);
        }
        self.article_logs.insert(publisher, rebuilt);
    }

    /// The logs as the `state` disk record keeps them: coverage, and the
    /// held seqs as present. A restored entry vouches as held, so a
    /// not-for-me seq comes back as a hole, which reconcile settles again
    /// (it was never delivered, so nothing can be delivered twice).
    pub(super) fn log_states(&self) -> Vec<persist::LogState> {
        self.article_logs
            .iter()
            .map(|(p, log)| persist::LogState {
                publisher: *p,
                coverage: log.encode_coverage(),
                present: persist::compress_ranges(
                    log.range(log.floor(), log.next_seq().saturating_sub(1))
                        .filter(|(_, entry)| **entry == LogEntry::Held)
                        .map(|(s, _)| s),
                ),
            })
            .collect()
    }

    /// Re-installs one log from the `state` disk record.
    pub(super) fn restore_log(&mut self, state: persist::LogState) {
        let log = self.log_mut(state.publisher);
        for (lo, hi) in state.present {
            for seq in lo..=hi {
                log.insert(seq, LogEntry::Held);
            }
        }
        log.restore_coverage(&state.coverage);
    }

    /// Drops every not-for-me log entry the `interest` of its publisher
    /// admits, so reconcile backfills what a widened subscription newly
    /// matches. A reply still in flight was asked for under the old
    /// interest, so its stubs are no longer believed either.
    pub(super) fn forget_admitted_stubs(&mut self, interest: impl Fn(PublisherId) -> Vec<u16>) {
        self.pending = None;
        let publishers: Vec<PublisherId> = self.article_logs.keys().copied().collect();
        for publisher in publishers {
            let own = interest(publisher);
            let log = &self.article_logs[&publisher];
            let admitted = |entry: &LogEntry| match *entry {
                LogEntry::NotForMe(id) => self.admits(&own, self.stubs.get(id)),
                LogEntry::Held => false,
            };
            let all = || log.range(log.floor(), u64::MAX);
            if !all().any(|(_, entry)| admitted(entry)) {
                continue;
            }
            let mut kept = SeqLog::new(ARTICLE_LOG_CAPACITY);
            for (seq, &entry) in all().filter(|(_, entry)| !admitted(entry)) {
                kept.insert(seq, entry);
            }
            kept.restore_coverage(&log.encode_coverage());
            self.article_logs.insert(publisher, kept);
        }
    }

    /// Rebuilds this node's digest rider from its article logs: one
    /// summary per logged publisher, or none with anti-entropy off or
    /// nothing logged.
    pub(super) fn publish_ae_digests(&mut self, anti_entropy: bool) {
        self.ae_digests = (anti_entropy && !self.article_logs.is_empty())
            .then(|| self.article_logs.iter().map(|(p, log)| (*p, log.summary())).collect());
    }

    /// The digest rider a gossip message to `to` carries: this node's, to a
    /// leaf mate only.
    pub(super) fn rider_to(&self, agent: &Agent, to: u32) -> Option<LogDigests> {
        self.ae_digests.as_ref().filter(|_| leaf_mate(agent, to)).map(Arc::clone)
    }

    /// Takes the digest rider of a gossip message from `from`: a leaf
    /// mate's replaces the last one it sent, and a mate's exchange without
    /// one retracts it. A rider from outside the leaf zone is not kept, and
    /// one naming a window no log can have (`next` below `floor`, or more
    /// entries present than the window holds) counts as none: riders come
    /// from peers, and a peer may lie.
    pub(super) fn take_digest_rider(
        &mut self,
        agent: &Agent,
        from: u32,
        digests: Option<LogDigests>,
    ) {
        if !leaf_mate(agent, from) {
            return;
        }
        let possible = |s: &RangeSummary| s.floor <= s.next && s.present <= s.next - s.floor;
        match digests.filter(|d| d.iter().all(|(_, s)| possible(s))) {
            Some(d) => {
                let row = agent.table(0).rows().iter().find(|r| row_id(&r.mib) == Some(from));
                self.leaf_digests.insert(from, (row.map_or(0, |r| r.stamp.version), d))
            }
            None => self.leaf_digests.remove(&from),
        };
    }

    /// Drops `peer`'s rider: it restarted into a new incarnation, and its
    /// log may now be shorter than the rider, so a pull against that would
    /// take its honest, empty reply for a contradiction. The new life's
    /// first row may stand past the version the rider was taken at already,
    /// so [`Reconcile::retire_stale_riders`] cannot see it.
    pub(super) fn forget_rider(&mut self, peer: u32) {
        self.leaf_digests.remove(&peer);
    }

    /// Drops the rider of every leaf mate whose row now stands at a version
    /// below the one the rider was taken at. The mate's row versions
    /// started over: every restart, a freeze included, restarts them and
    /// wipes the logs the rider described, while only a cold restart burns
    /// an incarnation that [`Reconcile::forget_rider`] is called on. Run
    /// after every merge of gossip, so the old rider is gone before the
    /// mate's new versions climb past it.
    pub(super) fn retire_stale_riders(&mut self, agent: &Agent) {
        if self.leaf_digests.is_empty() {
            return;
        }
        let own = agent.own_label(0);
        for r in agent.table(0).rows().iter().filter(|r| r.label != own) {
            let Some(mate) = row_id(&r.mib) else { continue };
            if self.leaf_digests.get(&mate).is_some_and(|(version, _)| r.stamp.version < *version) {
                self.leaf_digests.remove(&mate);
            }
        }
    }

    /// The digests of `publisher`'s log this node's leaf mates last sent
    /// it, `(mate, summary)`, in leaf-table order. Only a mate with a row
    /// here counts, so a rider from a member the table has let go of, or
    /// never admitted, is not read.
    fn mate_digests<'a>(
        &'a self,
        agent: &'a Agent,
        publisher: PublisherId,
    ) -> impl Iterator<Item = (u32, RangeSummary)> + 'a {
        let own = agent.own_label(0);
        agent.table(0).rows().iter().filter(move |r| r.label != own).filter_map(move |r| {
            let mate = row_id(&r.mib)?;
            let (_, digests) = self.leaf_digests.get(&mate)?;
            digests.iter().find(|(p, _)| *p == publisher).map(|&(_, s)| (mate, s))
        })
    }

    /// The epoch most of this node's leaf neighbours advertise for
    /// `publisher` in their digest riders — the reference the epoch fence
    /// trusts. Only a mate that sent a rider votes, so an identity that
    /// exists only as a row (a Sybil) has no vote. A genuine publisher
    /// restart reaches every neighbour within a gossip round or two, so the
    /// mode tracks honest epoch bumps; a fabricated epoch stays a minority
    /// of one. Ties break *low* (never fence up to a contested epoch).
    /// `None` when no neighbour advertises a digest. This is corruption
    /// tolerance under a majority-honest leaf zone, not Byzantine agreement
    /// — a colluding majority defeats it, which is why the epoch fence
    /// prefers the publisher-signed attestation whenever one is held and
    /// falls back to this mode only before any attestation arrives (see
    /// DESIGN §12; the §11 caveat describes the fallback's limits).
    pub(super) fn consensus_epoch(&self, agent: &Agent, publisher: PublisherId) -> Option<u32> {
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for (_, s) in self.mate_digests(agent, publisher) {
            *counts.entry(s.epoch).or_insert(0) += 1;
        }
        counts.into_iter().max_by_key(|&(epoch, n)| (n, std::cmp::Reverse(epoch))).map(|(e, _)| e)
    }

    /// True when no pull is in flight, every article log is hole-free, and
    /// each of the `publishers`' logs stands at or past the highest mark any
    /// leaf mate's rider advertises — vacuously so with neither.
    pub(super) fn caught_up(
        &self,
        agent: &Agent,
        mut publishers: impl Iterator<Item = PublisherId>,
    ) -> bool {
        self.pending.is_none()
            && self.article_logs.values().all(|log| log.gaps().is_empty())
            && publishers.all(|p| {
                let next = self.mate_digests(agent, p).map(|(_, s)| s.next).max().unwrap_or(0);
                self.article_logs.get(&p).map_or(next == 0, |log| log.next_seq() >= next)
            })
    }

    /// One reconcile step per gossip round: pick the next publisher with
    /// holes (round-robin), find the freshest leaf mate whose digest rider
    /// can fill them, and ask it for the missing ranges. `None` while a
    /// request is in flight.
    ///
    /// The publishers are those with a log plus those `subscribed` to; a
    /// subscribed publisher with no log yet — a joiner, a node back from a
    /// freeze, one that lost the first article — reads as an empty log, so
    /// any neighbour's digest is ahead of it. (The log itself is only ever
    /// created by an arrival: an empty one is never advertised.)
    ///
    /// Peer selection prefers leaf-zone neighbours advertising a
    /// *contiguous* log (they can vouch for everything up to their mark)
    /// that are not `suspect`. When the whole leaf zone shares the hole —
    /// the partition fell along a zone boundary — no such neighbour exists,
    /// and the fallback asks a random cross-zone representative blind; so
    /// does a `recovering` node whose leaf zone knows nothing of the
    /// publisher either. Once one leaf member has reconciled across the
    /// boundary it becomes a contiguous local source, and the rest of the
    /// zone heals epidemically from it.
    pub(super) fn next_ask(
        &mut self,
        agent: &Agent,
        subscribed: impl Iterator<Item = PublisherId>,
        recovering: bool,
        now: SimTime,
        suspect: &dyn Fn(u32) -> bool,
        rng: &mut SmallRng,
    ) -> Option<Ask> {
        if self.pending.is_some() {
            return None;
        }
        let mut publishers: Vec<PublisherId> =
            self.article_logs.keys().copied().chain(subscribed).collect();
        if publishers.is_empty() {
            return None;
        }
        publishers.sort_unstable();
        publishers.dedup();
        let no_log = SeqLog::new(ARTICLE_LOG_CAPACITY);
        for step in 0..publishers.len() {
            let publisher = publishers[(self.cursor + step) % publishers.len()];
            let log = self.article_logs.get(&publisher).unwrap_or(&no_log);
            // One walk of the own log per publisher; each neighbour is then
            // tested against the result without allocating.
            let gaps = log.gaps();
            // Leaf neighbours advertising digests that cover holes we have.
            let mut best: Option<(RangeSummary, u32)> = None;
            for (peer, summary) in self.mate_digests(agent, publisher) {
                if !summary.contiguous() || !log.lacks(&gaps, &summary) {
                    continue;
                }
                if suspect(peer) {
                    continue;
                }
                let fresher = match &best {
                    None => true,
                    Some((b, _)) => (summary.epoch, summary.next) > (b.epoch, b.next),
                };
                if fresher {
                    best = Some((summary, peer));
                }
            }
            let (peer, ranges, via_digest) = match best {
                Some((summary, peer)) => (NodeId(peer), log.missing_given(&summary), true),
                None => {
                    // No leaf neighbour is ahead of us. If our own log has
                    // internal gaps — or we are recovering and it has
                    // nothing at all, or it has been quiet long enough for
                    // the whole zone to have missed the newest articles,
                    // which nothing after them would reveal — ask across
                    // the zone boundary blind.
                    let cold = log.next_seq() == 0 && recovering;
                    let (due, backoff) = self.tail_probe;
                    let probe = gaps.is_empty() && !cold && log.next_seq() > 0 && now >= due;
                    if gaps.is_empty() && !cold && !probe {
                        continue;
                    }
                    let Some(peer) = cross_zone_peer(agent, suspect, rng) else { continue };
                    if probe {
                        let backoff = backoff.checked_mul(2).unwrap_or(backoff);
                        self.tail_probe = (now + backoff, backoff);
                    }
                    (peer, gaps, false)
                }
            };
            self.cursor = (self.cursor + step + 1) % publishers.len();
            return Some(Ask { peer, publisher, ranges, asked: Vec::new(), via_digest });
        }
        self.cursor = (self.cursor + 1) % publishers.len();
        None
    }

    /// Records `ask` as the request in flight until its wait `timer`, and
    /// returns its `ReconcileRequest`: this node's log epoch and tail mark,
    /// its `baselines` and its `interest`.
    pub(super) fn ask(
        &mut self,
        ask: Ask,
        timer: TimerId,
        baselines: Vec<BaselineHint>,
        interest: Vec<u16>,
    ) -> NewsWireMsg {
        let publisher = ask.publisher;
        let (epoch, tail_from, ranges) =
            (self.epoch(publisher), self.next_seq(publisher), ask.ranges.clone());
        self.pending = Some((PendingReconcile { ask, tail_from }, timer));
        NewsWireMsg::ReconcileRequest { publisher, epoch, ranges, tail_from, baselines, interest }
    }

    /// Takes the request in flight when `timer` is its wait timer. A timer
    /// outlives a request a subscription change forgot; it is not the
    /// deadline of the request sent since.
    pub(super) fn take_timed_out(&mut self, timer: TimerId) -> Option<PendingReconcile> {
        self.pending.take_if(|(_, t)| *t == timer).map(|(p, _)| p)
    }

    /// Takes the request in flight when a reply from `from` about
    /// `publisher` answers it. Its wait timer stays set; it finds no
    /// request when it fires.
    pub(super) fn take_reply(
        &mut self,
        from: NodeId,
        publisher: PublisherId,
    ) -> Option<PendingReconcile> {
        let answers = |p: &PendingReconcile| p.ask.peer == from && p.ask.publisher == publisher;
        self.pending.take_if(|(p, _)| answers(p)).map(|(p, _)| p)
    }

    /// Serves a `ReconcileRequest` from the log of `publisher`, in sequence
    /// order, at most [`RECONCILE_BATCH`] entries: each requested article the
    /// log holds is shipped when the requester's `interest` admits it — the
    /// leaf hop's own test, on the article's `stub_of` — and withheld as a
    /// stub when it does not; a seq whose article has since left the
    /// `cache` is vouched for as gone; a seq this node settled as not for
    /// itself is vouched for with its stub, to a requester that stub
    /// rejects. Nothing else is vouched for. A requester on a newer `epoch`
    /// has restarted history; our items would be misfiled under its
    /// sequencing, so nothing is shipped (the summary still tells it where
    /// we stand). Returns the log's summary, the items and the stubs.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn serve(
        &self,
        cache: &MessageCache,
        stub_of: impl Fn(&NewsItem) -> Stub,
        publisher: PublisherId,
        epoch: u32,
        ranges: &[(u64, u64)],
        tail_from: u64,
        interest: &[u16],
    ) -> (RangeSummary, Vec<SignedItem>, Vec<(u64, Stub)>) {
        let log = self.article_logs.get(&publisher);
        let summary = log.map(|log| log.summary()).unwrap_or_default();
        let mut items: Vec<SignedItem> = Vec::new();
        let mut withheld: Vec<(u64, Stub)> = Vec::new();
        if let Some(log) = log.filter(|_| summary.epoch >= epoch) {
            let wanted = ranges.iter().copied().chain([(tail_from, u64::MAX)]).collect();
            'walk: for (lo, hi) in merge_ranges(wanted) {
                for (seq, entry) in log.range(lo, hi) {
                    if items.len() + withheld.len() >= RECONCILE_BATCH {
                        break 'walk;
                    }
                    match (cache.get_signed(ItemId::new(publisher, seq)), entry) {
                        (Some((item, (key, signature))), _) => {
                            let stub = stub_of(item);
                            if self.admits(interest, &stub) {
                                let item = Arc::clone(item);
                                items.push(SignedItem { item, key, signature, basis: None });
                            } else {
                                withheld.push((seq, stub));
                            }
                        }
                        (None, LogEntry::Held) => withheld.push((seq, Stub::default())),
                        (None, &LogEntry::NotForMe(id)) => {
                            let stub = self.stubs.get(id);
                            if !self.admits(interest, stub) {
                                withheld.push((seq, stub.clone()));
                            }
                        }
                    }
                }
            }
        }
        (summary, items, withheld)
    }

    /// Settles what a reply to `pending` vouches for, after its items were
    /// admitted: each withheld seq is logged with its stub as not for this
    /// node (a gone article's empty stub included: revision-fused or
    /// evicted seqs are unservable by *anyone* on that epoch, and without
    /// settling we would re-request them forever). A requested seq the
    /// responder could not vouch for stays a hole.
    ///
    /// Stubs are believed for the seqs asked about only, up to the last
    /// one a cut reply `spoken_for`, from a responder on this node's epoch.
    /// An empty `summary` vouches for nothing — a peer with no log (say, a
    /// fresh amnesiac rejoiner picked through a stale digest) cannot have
    /// withheld anything, and its reply must not leave an empty log behind
    /// here to be advertised. A stub the `own` interest admits contradicts
    /// the test the responder claims to have run: it settles nothing.
    /// `next_before` is the log's mark before the reply's items.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn settle(
        &mut self,
        pending: &PendingReconcile,
        summary: &RangeSummary,
        withheld: Vec<(u64, Stub)>,
        spoken_for: u64,
        own: &[u16],
        next_before: u64,
        now: SimTime,
    ) -> Settled {
        let publisher = pending.ask.publisher;
        let mut contradicted = false;
        if !summary.is_empty() && summary.epoch == self.epoch(publisher) {
            let (against, believed): (Vec<_>, Vec<_>) = withheld
                .into_iter()
                .filter(|&(seq, _)| seq <= spoken_for && pending.requested(seq))
                .partition(|(_, stub)| self.admits(own, stub));
            contradicted = !against.is_empty();
            for (seq, stub) in believed {
                self.log_seen(ItemId::new(publisher, seq), Some(stub), now);
            }
        }
        // A hole asked about that the reply did not vouch for stays a hole.
        let asked_for = merge_ranges(pending.ask.ranges.clone())
            .into_iter()
            .map(|(lo, hi)| (lo, hi.min(spoken_for)))
            .filter(|(lo, hi)| lo <= hi);
        let log = self.article_logs.get(&publisher);
        let unvouched: Vec<(u64, u64)> = match log {
            Some(log) => asked_for
                .map(|(lo, hi)| (lo.max(log.floor()), hi))
                .filter(|(lo, hi)| lo <= hi)
                .flat_map(|(lo, hi)| holes_in(log, lo, hi))
                .collect(),
            None => asked_for.collect(),
        };
        let next_after = log.map_or(0, |log| log.next_seq());
        let behind = next_before < next_after && next_after < summary.next;
        Settled { contradicted, unvouched, behind }
    }

    /// What `publisher`'s log lacks of what `summary` covers.
    pub(super) fn missing(
        &self,
        publisher: PublisherId,
        summary: &RangeSummary,
    ) -> Vec<(u64, u64)> {
        self.article_logs[&publisher].missing_given(summary)
    }

    /// Forgets the logs, the stubs, both kinds of rider and the request in
    /// flight: what every restart, a freeze included, wipes. The cursor
    /// and the tail probe's wait stay.
    pub(super) fn clear(&mut self) {
        self.article_logs.clear();
        self.ae_digests = None;
        self.leaf_digests.clear();
        self.stubs.clear();
        self.pending = None;
    }

    /// Starts the round-robin over publishers from the first again.
    pub(super) fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Heap bytes of the logs, the stub table, this node's rider (an `Arc`'s
    /// two counts and the slice) and the handles to the mates' riders.
    pub(super) fn heap_bytes(&self) -> usize {
        let (logs, mates, stubs) = (&self.article_logs, &self.leaf_digests, &self.stubs);
        btree_map_bytes::<PublisherId, SeqLog<LogEntry>>(logs.len(), !logs.is_empty())
            + logs.values().map(SeqLog::heap_bytes).sum::<usize>()
            + btree_map_bytes::<u32, (u64, LogDigests)>(mates.len(), !mates.is_empty())
            + stubs.stubs.iter().map(|s| size_of_val(&*s.0)).sum::<usize>()
            + stubs.stubs.capacity() * size_of::<Stub>()
            + stubs.by_stub.capacity() * size_of::<StubId>()
            + self.ae_digests.as_ref().map_or(0, |d| 2 * size_of::<usize>() + size_of_val(&**d))
    }
}

/// Whether `peer` is another member of `agent`'s leaf zone.
fn leaf_mate(agent: &Agent, peer: u32) -> bool {
    peer != agent.id()
        && agent.layout().agent_range(agent.zone(0)).is_some_and(|r| r.contains(&peer))
}

/// A random *cross-zone* representative from `agent`'s higher tables, not
/// `suspect` while another is left — the escape hatch when the whole leaf
/// zone shares the same log holes (partitions usually fall along zone
/// boundaries).
fn cross_zone_peer(
    agent: &Agent,
    suspect: &dyn Fn(u32) -> bool,
    rng: &mut SmallRng,
) -> Option<NodeId> {
    let mut candidates: Vec<u32> = Vec::new();
    for level in 1..agent.levels() {
        for (label, row) in agent.table(level).iter() {
            if label == agent.own_label(level) {
                continue; // our own branch shares our holes
            }
            if let Some(AttrValue::Set(reps)) = row.get("reps") {
                candidates.extend(reps.iter().filter_map(|&r| u32::try_from(r).ok()));
            }
        }
    }
    candidates.retain(|&p| p != agent.id());
    prefer_unsuspected(&mut candidates, suspect);
    candidates.as_slice().choose(rng).map(|&p| NodeId(p))
}

/// The last seq a reply with `items` and `withheld` speaks for. A reply as
/// long as a batch may have been cut there (replies are in sequence order):
/// it speaks for nothing past its last entry.
pub(super) fn last_spoken_for(items: &[SignedItem], withheld: &[(u64, Stub)]) -> u64 {
    let last = items.last().map(|i| i.item.id.seq).max(withheld.last().map(|&(seq, _)| seq));
    match last {
        Some(last) if items.len() + withheld.len() >= RECONCILE_BATCH => last,
        _ => u64::MAX,
    }
}

/// Inclusive `ranges` sorted, with the empty ones dropped and the ones that
/// overlap or touch merged — a request's ranges are the requester's claim.
fn merge_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|(lo, hi)| lo <= hi);
    ranges.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match merged.last_mut() {
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// The seqs in `lo..=hi` (with `hi` below `u64::MAX`) that `log` has not
/// seen, as inclusive ranges.
fn holes_in(log: &SeqLog<LogEntry>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    let mut holes = Vec::new();
    let mut cursor = lo;
    for (seq, _) in log.range(lo, hi) {
        if seq > cursor {
            holes.push((cursor, seq - 1));
        }
        cursor = seq + 1;
    }
    if cursor <= hi {
        holes.push((cursor, hi));
    }
    holes
}

#[cfg(test)]
impl Reconcile {
    /// Replaces `publisher`'s log with one holding `held`.
    pub(super) fn set_log(&mut self, publisher: PublisherId, held: impl IntoIterator<Item = u64>) {
        self.rebuild_log(publisher, 0, held.into_iter());
    }

    /// True when a rider from `mate` is kept.
    pub(super) fn holds_rider(&self, mate: u32) -> bool {
        self.leaf_digests.contains_key(&mate)
    }

    /// The peer of the request in flight.
    pub(super) fn pending_peer(&self) -> Option<NodeId> {
        self.pending.as_ref().map(|(p, _)| p.ask.peer)
    }
}

#[cfg(test)]
mod tests {
    use astrolabe::{
        Config, GossipMsg, KeyId, MibBuilder, Signature, Stamp, TableRows, ZoneLayout,
    };
    use newsml::Category;
    use rand::SeedableRng;

    use super::super::tests::rider_of;
    use super::*;

    /// Node 0's agent in a layout of four leaf zones of four — leaf mates
    /// 1–3 — and an empty component.
    fn node0() -> (Agent, Reconcile) {
        let agent = Agent::new(0, &ZoneLayout::new(4, 4), Config::standard(), vec![]);
        (agent, Reconcile::new(1))
    }

    /// Mate 1's leaf row at `version`, as `via` forwards it at `at`, merged
    /// the way the node merges gossip: the agent first, then the riders its
    /// incarnation bumps and row versions retire.
    fn merge(
        agent: &mut Agent,
        rc: &mut Reconcile,
        row: MibBuilder,
        via: u32,
        at: SimTime,
        version: u64,
    ) {
        let row =
            row.attr("id", 1i64).build(Stamp { issued_us: at.as_micros(), version, origin: 1 });
        let rows = vec![(1, row.stamp, Arc::new(row))];
        let zone = agent.zone(0).clone();
        let msg = GossipMsg::Rows { rows: vec![TableRows { zone, rows }] };
        agent.on_message(at, via, msg, &mut SmallRng::seed_from_u64(1));
        for peer in agent.take_incarnation_bumps() {
            rc.forget_rider(peer);
        }
        rc.retire_stale_riders(agent);
    }

    /// The stub of an article: its categories' bits, one position a group.
    fn categories(item: &NewsItem) -> Stub {
        Stub(item.categories.iter().map(|c| u16::from(c.bit())).collect())
    }

    fn article(seq: u64, category: Category) -> Arc<NewsItem> {
        let item = NewsItem::builder(PublisherId(0), seq).headline(format!("h{seq}"));
        Arc::new(item.category(category).build())
    }

    const PROOF: (KeyId, Signature) = (KeyId(7), Signature(9));

    /// The serve walk's four outcomes, one seq each: a held article the
    /// requester's interest admits ships; one it rejects is withheld with
    /// its stub; a held seq whose article left the cache is vouched for as
    /// gone, with the empty stub; a seq settled as not for this node is
    /// vouched for with its stub to a requester that stub rejects, and to
    /// no other. A requester on a newer epoch is shipped nothing.
    #[test]
    fn the_serve_walk_ships_withholds_and_vouches_for_gone_and_not_for_me() {
        let (mut rc, mut cache, now) = (Reconcile::new(1), MessageCache::default(), SimTime::ZERO);
        let (tech, science, sports) = (Category::Technology, Category::Science, Category::Sports);
        for item in [article(0, tech), article(1, science)] {
            rc.log_seen(item.id, None, now);
            cache.insert_signed(item, PROOF, now);
        }
        rc.log_seen(ItemId::new(PublisherId(0), 2), None, now);
        let sports_stub = categories(&article(3, sports));
        rc.log_seen(ItemId::new(PublisherId(0), 3), Some(sports_stub.clone()), now);
        let interest = |c: Category| vec![u16::from(c.bit())];
        let serve = |epoch: u32, interest: &[u16]| {
            rc.serve(&cache, categories, PublisherId(0), epoch, &[(0, 2)], 3, interest)
        };

        let (summary, items, withheld) = serve(0, &interest(tech));
        assert_eq!((summary.epoch, summary.next, summary.present), (0, 4, 4));
        let shipped: Vec<u64> = items.iter().map(|i| i.item.id.seq).collect();
        assert_eq!(shipped, vec![0], "the admitted article ships");
        assert_eq!((items[0].key, items[0].signature), PROOF, "with its proof");
        let science_stub = categories(&article(1, science));
        let expect = vec![(1, science_stub), (2, Stub::default()), (3, sports_stub)];
        assert_eq!(withheld, expect, "withheld, gone, and not for a technology reader");

        let (_, items, withheld) = serve(0, &interest(sports));
        assert!(items.is_empty(), "nothing this requester wants is held");
        let seqs: Vec<u64> = withheld.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "a stub the requester admits vouches for nothing");

        let (summary, items, withheld) = serve(1, &interest(tech));
        assert_eq!(summary.next, 4, "a newer epoch still learns where this log stands");
        assert!(items.is_empty() && withheld.is_empty());
    }

    /// A reply as long as a batch stops at [`RECONCILE_BATCH`] entries and
    /// speaks for nothing past its last one: what the requester settles
    /// from it stops there, a stub past it is not believed, and the seqs
    /// past it are neither settled nor counted unvouched — the responder is
    /// still ahead. A shorter reply speaks for everything asked.
    #[test]
    fn a_full_batch_speaks_for_nothing_past_its_last_entry() {
        let now = SimTime::ZERO;
        let mut responder = Reconcile::new(1);
        for seq in 0..100 {
            responder.log_seen(ItemId::new(PublisherId(0), seq), None, now);
        }
        let cache = MessageCache::default();
        let serve =
            |hi: u64| responder.serve(&cache, categories, PublisherId(0), 0, &[(0, hi)], 100, &[]);
        let (_, items, withheld) = serve(9);
        assert_eq!(last_spoken_for(&items, &withheld), u64::MAX, "ten entries are not a batch");
        let (summary, items, mut withheld) = serve(99);
        assert_eq!(withheld.len(), RECONCILE_BATCH, "every seq is gone; the batch is full");
        let spoken_for = last_spoken_for(&items, &withheld);
        assert_eq!(spoken_for, RECONCILE_BATCH as u64 - 1);
        withheld.push((80, Stub::default()));

        let mut requester = Reconcile::new(1);
        let ask = Ask {
            peer: NodeId(1),
            publisher: PublisherId(0),
            ranges: vec![(0, 99)],
            asked: Vec::new(),
            via_digest: false,
        };
        let pending = PendingReconcile { ask, tail_from: 0 };
        let settled = requester.settle(&pending, &summary, withheld, spoken_for, &[], 0, now);
        let log = requester.log(PublisherId(0)).expect("the stubs were settled");
        assert_eq!((log.len(), log.next_seq()), (RECONCILE_BATCH, RECONCILE_BATCH as u64));
        assert!(!log.contains(80), "a stub past the last entry is not believed");
        assert!(settled.unvouched.is_empty(), "{:?}", settled.unvouched);
        assert!(settled.behind && !settled.contradicted);
    }

    /// A published rider is the article logs' summaries, and it rides gossip
    /// to leaf mates only. With anti-entropy off, none is sent.
    #[test]
    fn a_published_rider_equals_the_logs_summaries() {
        let (agent, mut rc) = node0();
        let now = SimTime::from_secs(1);
        rc.publish_ae_digests(true);
        assert!(rc.rider_to(&agent, 1).is_none(), "nothing logged, nothing to say");
        for seq in [0, 1, 2, 6] {
            rc.log_seen(ItemId::new(PublisherId(0), seq), None, now);
        }
        rc.publish_ae_digests(true);
        let rider = rc.rider_to(&agent, 1).expect("a leaf mate gets the rider");
        let summary = rider[0].1;
        assert_eq!(&*rider, &[(PublisherId(0), rc.log(PublisherId(0)).unwrap().summary())]);
        assert!(!summary.contiguous(), "the hole at 3..=5 shows in the digest");
        assert!(rc.rider_to(&agent, 4).is_none(), "gossip leaving the leaf zone carries none");
        rc.publish_ae_digests(false);
        assert!(rc.rider_to(&agent, 1).is_none(), "with anti-entropy off, none is published");
    }

    /// A leaf mate's rider is kept until its next exchange replaces or
    /// retracts it, a non-mate's is never stored, only a mate with a row
    /// is read, and not once that row's versions start over; a restart
    /// forgets every rider.
    #[test]
    fn a_leaf_mates_rider_is_kept_until_replaced_retracted_or_reset() {
        let (mut agent, mut rc) = node0();
        let epoch = |agent: &Agent, rc: &Reconcile| rc.consensus_epoch(agent, PublisherId(0));
        rc.take_digest_rider(&agent, 1, Some(rider_of(0, 3)));
        rc.take_digest_rider(&agent, 9, Some(rider_of(2, 5)));
        assert_eq!(rc.leaf_digests.keys().copied().collect::<Vec<_>>(), vec![1], "9 is no mate");
        assert_eq!(epoch(&agent, &rc), None, "1 has no row here yet");
        let now = SimTime::from_secs(1);
        merge(&mut agent, &mut rc, MibBuilder::new(), 1, now, 1);
        assert_eq!(epoch(&agent, &rc), Some(0));
        rc.take_digest_rider(&agent, 1, Some(rider_of(1, 4)));
        assert_eq!(epoch(&agent, &rc), Some(1), "the latest rider replaces the last");
        merge(&mut agent, &mut rc, MibBuilder::new(), 1, SimTime::from_secs(2), 0);
        assert_eq!(epoch(&agent, &rc), None, "1's versions started over");
        assert!(rc.leaf_digests.is_empty(), "and its rider went with them");
        rc.take_digest_rider(&agent, 1, Some(rider_of(1, 4)));
        rc.take_digest_rider(&agent, 1, None);
        assert!(rc.leaf_digests.is_empty(), "a rider-less exchange retracts it");
        let impossible = RangeSummary { epoch: 0, floor: 5, next: 3, present: 0 };
        rc.take_digest_rider(&agent, 1, Some(Arc::from([(PublisherId(0), impossible)])));
        assert!(rc.leaf_digests.is_empty(), "a window no log can have is not kept");
        assert_eq!(epoch(&agent, &rc), None);
        rc.take_digest_rider(&agent, 2, Some(rider_of(0, 3)));
        rc.log_seen(ItemId::new(PublisherId(0), 0), None, now);
        rc.publish_ae_digests(true);
        rc.clear();
        assert!(rc.leaf_digests.is_empty(), "a restart forgets the mates' riders");
        assert!(rc.rider_to(&agent, 1).is_none(), "and its own");
    }

    /// A freeze burns no incarnation, so a leaf mate's pre-freeze rider
    /// goes the moment the mate's row is merged below the version the rider
    /// was taken at — here by way of a third mate, with no fresh rider from
    /// the frozen one — and is never read again as the new versions climb
    /// past that one.
    #[test]
    fn a_frozen_mates_old_rider_is_never_read_again() {
        let (mut agent, mut rc) = node0();
        merge(&mut agent, &mut rc, MibBuilder::new(), 1, SimTime::from_secs(1), 40);
        rc.take_digest_rider(&agent, 1, Some(rider_of(3, 7)));
        let read = |agent: &Agent, rc: &Reconcile| {
            rc.mate_digests(agent, PublisherId(0)).collect::<Vec<_>>()
        };
        let before = read(&agent, &rc);
        assert_eq!(before, vec![(1, rider_of(3, 7)[0].1)], "the rider is read before the freeze");
        for (k, version) in [1, 2, 39, 40, 41, 90].into_iter().enumerate() {
            let at = SimTime::from_secs(10 + k as u64);
            merge(&mut agent, &mut rc, MibBuilder::new(), 2, at, version);
            assert_eq!({ agent.table(0).row(1).unwrap().stamp.version }, version);
            assert_eq!(read(&agent, &rc), vec![], "the pre-freeze rider is read at {version}");
            assert_eq!(rc.consensus_epoch(&agent, PublisherId(0)), None);
        }
    }

    /// A cold restart's rider goes on the incarnation bump itself: the
    /// first row of the mate's new life to reach this node may already
    /// stand at or past the version its old rider was taken at — the old
    /// life was short, or the new one climbed before its row got here —
    /// and then no version check can tell the two lives apart.
    #[test]
    fn a_cold_restarted_mates_rider_goes_with_its_old_incarnation() {
        let (mut agent, mut rc) = node0();
        let life = |incar: i64| MibBuilder::new().attr("incar", incar);
        merge(&mut agent, &mut rc, life(1), 1, SimTime::from_secs(1), 5);
        rc.take_digest_rider(&agent, 1, Some(rider_of(3, 7)));
        let read = |agent: &Agent, rc: &Reconcile| {
            rc.mate_digests(agent, PublisherId(0)).collect::<Vec<_>>()
        };
        let before = read(&agent, &rc);
        assert_eq!(before, vec![(1, rider_of(3, 7)[0].1)], "the rider is read before the restart");
        merge(&mut agent, &mut rc, life(2), 1, SimTime::from_secs(30), 9);
        assert_eq!({ agent.table(0).row(1).unwrap().stamp.version }, 9, "the new life is merged");
        assert_eq!(read(&agent, &rc), vec![], "the old life's rider is read past the restart");
        assert_eq!(rc.consensus_epoch(&agent, PublisherId(0)), None);
    }
}
