//! The Astrolabe agent: one per participating node.
//!
//! Each agent owns its leaf MIB row and replicates the zone tables on its
//! root path (paper §3: "like a jigsaw puzzle, each participant stores just
//! a part of the data structure, and the illusion of a tree of tables is
//! constructed at runtime through a peer-to-peer protocol").
//!
//! The agent is written *sans-IO*: [`Agent::on_tick`] and
//! [`Agent::on_message`] are pure state transitions that return an outbox of
//! `(peer, GossipMsg)` pairs. Hosts (the simnet wrapper in
//! [`crate::AstroNode`], the multicast layer in `amcast`, the full NewsWire
//! node) embed an agent and shuttle its messages, which keeps the protocol
//! testable in isolation and composable without generics gymnastics.
//!
//! # Protocol
//!
//! Anti-entropy in three hops. `A` picks, per level it represents, a peer
//! `B` in a *different* child of the level's zone and sends a digest of all
//! tables the two share (that zone and every ancestor): per row its label,
//! stamp and content hash. `B` replies with the rows where it is newer plus
//! a want-list of rows where `A` advertised newer; `A` merges, then ships
//! the wanted rows. Rows are immutable and stamped `(issued, version,
//! origin)`; newest wins everywhere, which makes merging commutative,
//! idempotent and eventually consistent.
//!
//! Every heartbeat re-stamps a row whose values did not change, so the
//! content hash decides what travels: where `B` holds `A`'s advertised
//! values under an older stamp it takes the stamp from the digest (no want,
//! no hop 3), where it holds them under a newer stamp it replies with a
//! 30-byte refresh record instead of the row, and only rows whose values
//! differ travel whole.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use obs::{ctr, gauge, hist, kind, Layer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use simnet::{PhiBank, SimTime};

use crate::agg::{parse_program, run_program, AggProgram};
use crate::config::Config;
use crate::mib::{AttrName, Mib, MibBuilder, Stamp};
use crate::table::{Diff, MergeOutcome, RowDigest, ZoneTable};
use crate::value::AttrValue;
use crate::zone::{ZoneId, ZoneLayout};

pub use crate::mib::AGG_ATTR_PREFIX;

/// Defense-in-depth bound on attributes per ingested row: honest rows carry
/// a couple of dozen attributes (locals, core aggregates, mobile code), so
/// anything past this is a memory-amplification attempt, not data.
const MAX_ROW_ATTRS: usize = 256;

/// Digest of one table for anti-entropy exchange.
///
/// The row digests are shared (`Arc`): an agent fanning the same digest out
/// to several peers in one round clones a pointer, not the stamp list.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDigest {
    /// The zone whose table is being advertised.
    pub zone: ZoneId,
    /// Per-row version stamps and content hashes.
    pub rows: Arc<[RowDigest]>,
    /// Delta gossip only: table generation this digest is relative to.
    /// `0` means the digest is *full* (covers every held row — also the
    /// invariant shape when delta gossip is off); non-zero means it covers
    /// only rows changed after that generation of the sender's table.
    pub since: u64,
    /// Delta gossip only: the sender's table generation at send time, so
    /// the receiver can detect a missed delta (`since` beyond the last
    /// generation it processed) and ask for a full exchange. `0` when
    /// delta gossip is off.
    pub gen: u64,
}

/// A batch of rows from one table.
#[derive(Debug, Clone)]
pub struct TableRows {
    /// The zone whose table the rows belong to.
    pub zone: ZoneId,
    /// `(label, stamp, values)`: each row's values under the stamp the
    /// sender holds them under, which may be newer than the values' own
    /// `stamp` (see [`crate::Row::stamp`]).
    pub rows: Vec<(u16, Stamp, Arc<Mib>)>,
}

/// Gossip protocol messages.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// Hop 1: advertise row versions for the shared tables.
    Digest {
        /// One digest per shared table, leaf-most first.
        digests: Vec<TableDigest>,
    },
    /// Hop 2: rows newer at the receiver, plus a want-list.
    DigestReply {
        /// Rows where the replier held other values under a newer stamp,
        /// or that a full digest did not list.
        rows: Vec<TableRows>,
        /// `(zone, labels)` the replier wants.
        want: Vec<(ZoneId, Vec<u16>)>,
        /// Stamp-refresh records `(label, stamp, hash)`: rows where the
        /// replier held the digest's values under a newer stamp. The
        /// receiver takes the stamp for the row it holds only while that
        /// row's values still hash to the record's `chash`.
        refresh: Vec<(ZoneId, Vec<RowDigest>)>,
        /// Delta gossip only: zones where the replier detected a missed
        /// delta digest and needs the sender's next digest to be full.
        /// Always empty when delta gossip is off.
        want_full: Vec<ZoneId>,
    },
    /// Hop 3: the wanted rows.
    Rows {
        /// Rows the original sender was newer on.
        rows: Vec<TableRows>,
    },
}

impl GossipMsg {
    /// A digest reply that carries nothing: what an agent in sync with a
    /// digest's sender owes it (the agent itself sends none; a host that
    /// times exchanges by their replies does).
    pub fn empty_reply() -> Self {
        GossipMsg::DigestReply {
            rows: Vec::new(),
            want: Vec::new(),
            refresh: Vec::new(),
            want_full: Vec::new(),
        }
    }

    /// Approximate wire size in bytes, for traffic accounting.
    pub fn wire_size(&self) -> usize {
        fn zone_size(z: &ZoneId) -> usize {
            2 + z.depth() * 2
        }
        fn rows_size(rs: &[TableRows]) -> usize {
            rs.iter()
                .map(|t| {
                    zone_size(&t.zone)
                        + t.rows.iter().map(|(_, _, r)| 2 + r.wire_size()).sum::<usize>()
                })
                .sum()
        }
        fn entries_size(z: &ZoneId, entries: &[RowDigest]) -> usize {
            zone_size(z) + entries.len() * RowDigest::WIRE_SIZE
        }
        8 + match self {
            GossipMsg::Digest { digests } => digests
                .iter()
                .map(|d| {
                    // A delta-gossip digest (recognizable by a non-zero
                    // generation) adds its since/gen pair.
                    let header = if d.gen > 0 { 16 } else { 0 };
                    header + entries_size(&d.zone, &d.rows)
                })
                .sum::<usize>(),
            GossipMsg::DigestReply { rows, want, refresh, want_full } => {
                rows_size(rows)
                    + want.iter().map(|(z, ls)| zone_size(z) + ls.len() * 2).sum::<usize>()
                    + refresh.iter().map(|(z, rs)| entries_size(z, rs)).sum::<usize>()
                    + want_full.iter().map(zone_size).sum::<usize>()
            }
            GossipMsg::Rows { rows } => rows_size(rows),
        }
    }
}

/// Everything [`Agent::recompute_level`] needs for one gossip round, cached
/// across rounds and invalidated by `scope_epoch`: the compiled program list
/// (configured aggregations first, then dynamic-in-scope in name order) and
/// the pre-formatted `sys$agg:` attributes that ride along in summary rows.
/// Both halves sit behind `Arc` so cloning out of the cache is two pointer
/// bumps.
#[derive(Debug, Clone)]
struct RoundState {
    programs: Arc<[Arc<AggProgram>]>,
    agg_attrs: Arc<[(AttrName, AttrValue)]>,
}

/// One cached aggregate summary (see [`Agent::recompute_level`]): the row
/// last computed over a level's table, valid while that table's content
/// generation and the mobile-code scope both stand still. Re-issuing it is
/// [`ZoneTable::merge_stamped`] — a fresh inline stamp, nothing copied.
#[derive(Debug)]
struct AggCache {
    content_gen: u64,
    epoch: u64,
    proto: Arc<Mib>,
}

/// Everything an agent keeps for one zone on its root path: the replica and
/// the state derived from it or indexed by its labels, side by side so the
/// merge path touches one record per level and the constructor makes one
/// allocation for all of them.
#[derive(Debug)]
struct Level {
    /// The replica of the zone's table; `table.zone` names the zone.
    table: ZoneTable,
    /// The table's digest keyed by its generation, so the several gossip
    /// fan-outs of one round share a single stamp-list allocation.
    digest: Option<(u64, Arc<[RowDigest]>)>,
    /// Aggregate summary of `table`, keyed on its content generation and
    /// `scope_epoch`. In steady state rows are merely re-stamped each round,
    /// both keys stand still, and the summary is re-issued from the cache
    /// instead of re-running every aggregation program.
    agg: Option<AggCache>,
    /// Gossip peer candidates, keyed on the content generations of `table`
    /// and the parent level's (the two inputs of [`Agent::peers_at`]).
    peers: Option<(u64, u64, Vec<u32>)>,
    /// Phi-accrual detectors indexed by row label, fed whenever a merged
    /// row's stamp advances. Failure detection: a row is evicted when its
    /// detector grows suspicious, not on a fixed TTL cliff. Empty until the
    /// first foreign row arrives, then sized once to the zone's child count
    /// — the gc sweep and the merge loop consult a detector per row, so
    /// this sits on the hot path where a hashed lookup showed up.
    detectors: PhiBank,
}

/// One node's Astrolabe state machine. See the module docs for the protocol.
#[derive(Debug)]
pub struct Agent {
    id: u32,
    config: Config,
    layout: ZoneLayout,
    /// The zones whose tables this agent replicates: leaf zone first, root
    /// last.
    levels: Vec<Level>,
    own_slot: u16,
    contacts: Vec<u32>,
    version: u64,
    local: MibBuilder,
    /// Mobile-code (`sys$agg:`) sources seen so far, compiled (`None`: does
    /// not parse). Configured programs arrive compiled in their
    /// [`crate::AggSpec`] and never enter this map.
    compiled: HashMap<String, Option<Arc<AggProgram>>>,
    dynamic: BTreeMap<String, String>,
    /// Bumped whenever the inputs of [`Agent::dynamic_in_scope`] may have
    /// changed: a program install, a merge or eviction touching a row that
    /// carries `sys$agg:` attributes, or a reset. While it stands still the
    /// cached [`RoundState`] is reused, skipping the full-table rescan that
    /// used to run every round.
    scope_epoch: u64,
    scope_cache: Option<(u64, RoundState)>,
    /// Scratch value for [`ZoneTable::diff_into`] in the digest handler.
    scratch_diff: Diff,
    /// Bumped whenever `local` changes; keys `own_row_cache`.
    local_gen: u64,
    /// The fully decorated own row (locals + `id`/`reps`/`nmembers`),
    /// rebuilt only when `local` changed; heartbeats re-stamp it in place.
    own_row_cache: Option<(u64, Arc<Mib>)>,
    /// Stamp watermark of rows evicted on suspicion: gossip re-offering the
    /// same (or an older) stamp is refused, so an evicted member cannot be
    /// resurrected by a replica that has not evicted it yet. A genuinely
    /// alive member re-enters with its next, newer stamp.
    tombstones: HashMap<(usize, u16), u64>,
    /// This node's own incarnation number: persisted by the host and bumped
    /// on every cold restart. Carried in the own leaf row as the `incar`
    /// attribute (only when non-zero, so pre-recovery deployments gossip
    /// byte-identical rows).
    incarnation: u64,
    /// Highest incarnation observed per leaf-table label. Rows carrying an
    /// older incarnation are stale gossip from before that peer's cold
    /// restart and are fenced (dropped) regardless of stamp.
    incar_seen: HashMap<u16, u64>,
    /// Memoized `incar` attribute reads for the leaf fence, one slot per
    /// leaf label: the last values examined (the `Arc` pins them, so pointer
    /// identity can never alias a freed block) and their incarnation.
    /// Steady-state heartbeats offer the same shared values under newer
    /// stamps, so the fence becomes a pointer compare instead of a per-row
    /// attribute lookup.
    incar_cache: Vec<Option<(Arc<Mib>, u64)>>,
    /// Node ids observed under a *newer* incarnation since the last drain —
    /// the host resets its own per-peer failure detectors for these (a
    /// restarted peer must be immediately selectable again, not held hostage
    /// by suspicion accrued against its previous life).
    incarnation_bumps: Vec<u32>,
    /// When set, gossiped rows are structurally validated before merging
    /// (see [`Agent::row_is_valid`]); malformed rows are rejected and
    /// counted instead of silently merged. Off by default — the bare
    /// Astrolabe protocol trusts its peers, matching the paper; hosts that
    /// face an adversarial fault model (the NewsWire node) switch it on.
    validate_ingest: bool,
    /// Delta gossip, sender side: per `(peer, level)`, the table generation
    /// covered by the last digest sent there and a countdown to the next
    /// forced full exchange. Advanced optimistically (no ack): a dropped
    /// partial digest is healed by the periodic full digest, never by
    /// retransmission.
    delta_sent: HashMap<(u32, usize), DeltaPeerState>,
    /// Delta gossip, receiver side: highest partial-digest generation
    /// processed per `(peer, level)` since that lane's last full digest,
    /// which removes the entry. A partial digest whose `since` exceeds this
    /// means a delta was missed; the reply then carries `want_full`.
    peer_gen_seen: HashMap<(u32, usize), u64>,
}

/// Sender-side delta gossip bookkeeping for one `(peer, level)` lane.
#[derive(Debug, Clone, Copy)]
struct DeltaPeerState {
    /// Table generation the last digest to this peer covered through.
    sent_gen: u64,
    /// Digests remaining until the next forced full exchange.
    rounds_to_full: u32,
}

impl Agent {
    /// Creates the agent for node `id` in the given layout.
    ///
    /// `extra_contacts` seed discovery beyond the agent's own leaf zone
    /// (paper §8 leaves bootstrap configuration out of scope; the simulation
    /// hands every agent a few random contacts, standing in for the seed
    /// list a downloaded client would ship with).
    pub fn new(id: u32, layout: &ZoneLayout, config: Config, extra_contacts: Vec<u32>) -> Self {
        let chain = layout.ancestor_chain(id);
        let mut contacts =
            Vec::with_capacity(usize::from(layout.branching()) + extra_contacts.len());
        contacts.extend(layout.members_of(&chain[0]).filter(|&m| m != id));
        contacts.extend(extra_contacts.into_iter().filter(|&c| c != id));
        contacts.sort_unstable();
        contacts.dedup();
        let phi = config.phi();
        let levels = chain
            .into_iter()
            .map(|zone| Level {
                table: ZoneTable::new(zone),
                digest: None,
                agg: None,
                peers: None,
                detectors: PhiBank::new(phi),
            })
            .collect();
        Agent {
            id,
            config,
            layout: layout.clone(),
            levels,
            own_slot: layout.member_slot(id),
            contacts,
            version: 0,
            local: MibBuilder::new(),
            compiled: HashMap::new(),
            dynamic: BTreeMap::new(),
            scope_epoch: 0,
            scope_cache: None,
            scratch_diff: Diff::default(),
            local_gen: 0,
            own_row_cache: None,
            tombstones: HashMap::new(),
            incarnation: 0,
            incar_seen: HashMap::new(),
            incar_cache: Vec::new(),
            incarnation_bumps: Vec::new(),
            validate_ingest: false,
            delta_sent: HashMap::new(),
            peer_gen_seen: HashMap::new(),
        }
    }

    /// This agent's node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The agent's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The zone this agent replicates at `level`: its leaf zone at 0, the
    /// root at `levels() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn zone(&self, level: usize) -> &ZoneId {
        &self.levels[level].table.zone
    }

    /// Number of replicated tables (leaf-zone table through root table).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The replica of `zone(level)`'s table.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn table(&self, level: usize) -> &ZoneTable {
        &self.levels[level].table
    }

    /// The root table (rows summarize the top-level zones).
    pub fn root_table(&self) -> &ZoneTable {
        &self.levels.last().expect("an agent replicates at least the root").table
    }

    /// This agent's row label within `zone(level)`'s table.
    pub fn own_label(&self, level: usize) -> u16 {
        if level == 0 {
            self.own_slot
        } else {
            self.zone(level - 1).label().expect("non-root chain entry has a label")
        }
    }

    /// Sets an attribute of this agent's own MIB row (takes effect at the
    /// next tick). `id`, `reps` and `nmembers` are reserved and overwritten
    /// by the agent. Setting the value already held changes nothing: the next
    /// tick re-stamps the cached own row instead of rebuilding it.
    pub fn set_local_attr(&mut self, name: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        if self.local.get(name) == Some(&value) {
            return;
        }
        self.local.set(name, value);
        self.local_gen += 1;
    }

    /// Reads back a locally set attribute (the node's own MIB values).
    pub fn local_attr(&self, name: &str) -> Option<&AttrValue> {
        self.local.get(name)
    }

    /// Removes every locally set attribute whose name starts with `prefix`,
    /// returning how many were dropped. Hosts call this on cold restart to
    /// retract stale advertisements (anti-entropy digests, coverage claims)
    /// that describe state the restarted process no longer holds.
    pub fn remove_local_attrs(&mut self, prefix: &str) -> usize {
        let removed = self.local.remove_prefix(prefix);
        if removed > 0 {
            self.local_gen += 1;
        }
        removed
    }

    /// Sets this node's incarnation number (bumped by the host on every cold
    /// restart, persisted to stable storage). A non-zero incarnation rides in
    /// the own leaf row as the `incar` attribute; peers fence any row still
    /// carrying an older incarnation and reset their suspicion of this node.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        if self.incarnation != incarnation {
            self.incarnation = incarnation;
            self.local_gen += 1;
        }
    }

    /// This node's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Drains the node ids observed under a newer incarnation since the last
    /// call. Hosts use this to reset per-peer failure-detector state so a
    /// freshly restarted peer is immediately eligible again (for ack
    /// forwarding, repair, gossip) instead of inheriting the suspicion its
    /// previous life accrued.
    pub fn take_incarnation_bumps(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.incarnation_bumps)
    }

    /// Enables (or disables) structural validation of gossiped rows before
    /// they are merged. See [`Agent::scrub`] for the matching self-audit
    /// sweep over rows that were admitted before validation was on.
    pub fn set_ingest_validation(&mut self, on: bool) {
        self.validate_ingest = on;
    }

    /// Installs a dynamic aggregation program (mobile code). It propagates
    /// to the rest of the system as a `sys$agg:` attribute and is evaluated
    /// by every agent that sees it.
    pub fn install_aggregation(&mut self, name: &str, program: &str) {
        self.dynamic.insert(name.to_owned(), program.to_owned());
        self.local.set(format!("{AGG_ATTR_PREFIX}{name}"), program.to_owned());
        self.scope_epoch += 1;
        self.local_gen += 1;
    }

    /// True when this agent is currently a representative of
    /// `zone(level)` (always true for the implicit level of its own row;
    /// vacuously false for the root, which has no parent to represent it
    /// in).
    pub fn is_rep(&self, level: usize) -> bool {
        let parent = level + 1;
        if parent >= self.levels.len() {
            return false;
        }
        match self.table(parent).get(self.own_label(parent)) {
            Some(row) => match row.get("reps") {
                Some(AttrValue::Set(s)) => s.contains(&u64::from(self.id)),
                _ => true, // no reps computed yet: bootstrap duty
            },
            None => true, // nobody summarized us yet: bootstrap duty
        }
    }

    fn bootstrap_duty(&self, level: usize) -> bool {
        let parent = level + 1;
        if parent >= self.levels.len() {
            return false;
        }
        match self.table(parent).get(self.own_label(parent)) {
            Some(row) => row.get("reps").is_none(),
            None => true,
        }
    }

    fn next_stamp(&mut self, now: SimTime) -> Stamp {
        self.version += 1;
        Stamp { issued_us: now.as_micros(), version: self.version, origin: self.id }
    }

    fn refresh_own_row(&mut self, now: SimTime) {
        let stamp = self.next_stamp(now);
        if let Some((gen, proto)) = &self.own_row_cache {
            if *gen == self.local_gen {
                // Heartbeat of an unchanged row: the cached values under a
                // fresh stamp, written inline — no row is allocated.
                let proto = Arc::clone(proto);
                self.levels[0].table.merge_stamped(self.own_slot, stamp, proto);
                return;
            }
        }
        let mut b = self.local.clone();
        if b.get("load").is_none() {
            // Representative election scores on load; an agent that never
            // reported one is assumed unloaded.
            b.set("load", 0.0f64);
        }
        b.set("id", i64::from(self.id));
        if self.incarnation > 0 {
            // i64 holds microsecond incarnations for ~292k simulated years.
            b.set("incar", self.incarnation as i64);
        }
        let mut reps = std::collections::BTreeSet::new();
        reps.insert(u64::from(self.id));
        b.set("reps", AttrValue::Set(reps));
        b.set("nmembers", 1i64);
        let row = Arc::new(Mib::new(stamp, b.into_attrs()));
        self.own_row_cache = Some((self.local_gen, Arc::clone(&row)));
        self.levels[0].table.merge_row(self.own_slot, row);
    }

    /// Failure detection sweep: evict rows whose phi detector has crossed
    /// the suspicion threshold, plus (backstop) rows past the hard TTL whose
    /// cadence was never observed. Evicted stamps are tombstoned so stale
    /// replicas cannot resurrect them.
    fn gc(&mut self, now: SimTime) {
        let hard_cutoff = now.as_micros().saturating_sub(self.config.row_ttl.as_micros());
        for level in 0..self.levels.len() {
            let keep = self.own_label(level);
            let lv = &self.levels[level];
            let suspects: Vec<(u16, u64, bool)> = lv
                .table
                .rows()
                .iter()
                .filter(|r| {
                    r.label != keep
                        && (lv.detectors.is_suspect(usize::from(r.label), now)
                            || r.stamp.issued_us < hard_cutoff)
                })
                .map(|r| (r.label, r.stamp.issued_us, r.mib.carries_mobile_code()))
                .collect();
            for (label, issued_us, carried_agg) in suspects {
                self.evict(level, label, carried_agg);
                self.tombstones.insert((level, label), issued_us);
            }
        }
    }

    /// Drops a held row together with its failure detector.
    fn evict(&mut self, level: usize, label: u16, carried_agg: bool) {
        let lv = &mut self.levels[level];
        lv.table.remove(label);
        lv.detectors.clear(usize::from(label));
        if carried_agg {
            self.scope_epoch += 1;
        }
    }

    /// The stamp of the foreign row at `(level, label)` just advanced: its
    /// member is alive again as far as any tombstone goes, and gossip *is*
    /// the heartbeat its failure detector feeds on.
    fn heartbeat(&mut self, level: usize, label: u16, now: SimTime) {
        if !self.tombstones.is_empty() {
            self.tombstones.remove(&(level, label));
        }
        let lv = &mut self.levels[level];
        if lv.detectors.is_empty() {
            lv.detectors.grow_to(usize::from(self.layout.child_count(&lv.table.zone)));
        }
        lv.detectors.heartbeat(usize::from(label), now);
    }

    /// All dynamic programs visible in any replicated table (union of
    /// `sys$agg:` attributes), plus locally installed ones.
    fn dynamic_in_scope(&self) -> BTreeMap<String, String> {
        let mut progs = self.dynamic.clone();
        for lv in &self.levels {
            for (_, row) in lv.table.iter() {
                for (name, value) in row.attrs() {
                    if let Some(short) = name.strip_prefix(AGG_ATTR_PREFIX) {
                        if let AttrValue::Str(src) = value {
                            progs.entry(short.to_owned()).or_insert_with(|| src.clone());
                        }
                    }
                }
            }
        }
        progs
    }

    /// The per-round aggregation inputs, rebuilt only when `scope_epoch`
    /// moved since the cached copy was made.
    fn round_state(&mut self) -> RoundState {
        if let Some((epoch, rs)) = &self.scope_cache {
            if *epoch == self.scope_epoch {
                return rs.clone();
            }
        }
        let dynamic = self.dynamic_in_scope();
        let mut programs: Vec<Arc<AggProgram>> =
            self.config.aggregations.iter().filter_map(|a| a.compiled().cloned()).collect();
        for src in dynamic.values() {
            if let Some(p) = compile_cached(&mut self.compiled, src) {
                programs.push(p);
            }
        }
        let agg_attrs: Vec<(AttrName, AttrValue)> = dynamic
            .iter()
            .map(|(name, src)| {
                (AttrName::from(format!("{AGG_ATTR_PREFIX}{name}")), AttrValue::Str(src.clone()))
            })
            .collect();
        let rs = RoundState { programs: programs.into(), agg_attrs: agg_attrs.into() };
        self.scope_cache = Some((self.scope_epoch, rs.clone()));
        rs
    }

    fn recompute_level(&mut self, level: usize, now: SimTime, rs: &RoundState) {
        let parent = level + 1;
        if parent >= self.levels.len() {
            return;
        }
        if !(self.is_rep(level) || self.bootstrap_duty(level)) {
            return;
        }

        let label = self.own_label(parent);
        let content = self.table(level).content_generation();
        let cached = match &self.levels[level].agg {
            Some(c) if c.content_gen == content && c.epoch == self.scope_epoch => {
                Some(Arc::clone(&c.proto))
            }
            _ => None,
        };
        if let Some(proto) = cached {
            // Source rows were only re-stamped since the last round: the
            // summary values are unchanged, so re-issue the cached row under
            // a fresh stamp without re-running the programs (and without
            // allocating, copying or re-measuring anything).
            obs::metric_add!(self.id, ctr::AGG_CACHE_HITS, 1);
            let stamp = self.next_stamp(now);
            self.levels[parent].table.merge_stamped(label, stamp, proto);
            return;
        }

        obs::metric_add!(self.id, ctr::AGG_RECOMPUTES, 1);
        let mut out = MibBuilder::new();
        let rows = self.table(level).rows();
        for prog in rs.programs.iter() {
            match run_program(prog, rows) {
                Ok(attrs) => {
                    for (name, value) in attrs {
                        out.set(name, value);
                    }
                }
                Err(_) => {
                    // A mis-typed (possibly hostile) mobile program must not
                    // poison the hierarchy; skip its output this round.
                }
            }
        }
        // Mobile code rides along in the summary row.
        for (name, src) in rs.agg_attrs.iter() {
            out.set(Arc::clone(name), src.clone());
        }

        let stamp = self.next_stamp(now);
        let row = Arc::new(Mib::new(stamp, out.into_attrs()));
        self.levels[level].agg = Some(AggCache {
            content_gen: content,
            epoch: self.scope_epoch,
            proto: Arc::clone(&row),
        });
        self.levels[parent].table.merge_row(label, row);
    }

    /// Candidate gossip targets at `level`: node ids advertised in `reps`
    /// attributes of rows other than this agent's own, plus this agent's
    /// *co-representatives* — the other members of `reps` in the parent
    /// table's summary of this zone. Co-reps live in sibling leaf zones of
    /// the same interior zone, so gossiping with them is what knits the
    /// interior table together when no configured contact happens to land
    /// there.
    /// [`Agent::peers_at`] behind a content-generation cache: the candidate
    /// list is a pure function of the `reps` attributes at `level` and its
    /// parent, so it is rebuilt only when either table's *values* changed.
    fn peers_cached(&mut self, level: usize) -> &[u32] {
        let gen = self.table(level).content_generation();
        let parent_gen =
            self.levels.get(level + 1).map_or(u64::MAX, |lv| lv.table.content_generation());
        let stale = !matches!(
            &self.levels[level].peers,
            Some((g, p, _)) if *g == gen && *p == parent_gen
        );
        if stale {
            let peers = self.peers_at(level);
            self.levels[level].peers = Some((gen, parent_gen, peers));
        } else {
            obs::metric_add!(self.id, ctr::PEERS_CACHE_HITS, 1);
        }
        match &self.levels[level].peers {
            Some((_, _, peers)) => peers,
            None => unreachable!("cache entry was just populated"),
        }
    }

    fn peers_at(&self, level: usize) -> Vec<u32> {
        let own = self.own_label(level);
        let mut out = Vec::new();
        for (label, row) in self.table(level).iter() {
            if label == own {
                continue;
            }
            if let Some(AttrValue::Set(s)) = row.get("reps") {
                out.extend(s.iter().filter_map(|&v| u32::try_from(v).ok()));
            }
        }
        let parent = level + 1;
        if parent < self.levels.len() {
            if let Some(row) = self.table(parent).get(self.own_label(parent)) {
                if let Some(AttrValue::Set(s)) = row.get("reps") {
                    out.extend(s.iter().filter_map(|&v| u32::try_from(v).ok()));
                }
            }
        }
        out.retain(|&p| p != self.id);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn digests_from(&mut self, level: usize, peer: u32) -> Vec<TableDigest> {
        if !self.config.delta_gossip {
            return (level..self.levels.len())
                .map(|i| TableDigest {
                    zone: self.zone(i).clone(),
                    rows: self.digest_at(i),
                    since: 0,
                    gen: 0,
                })
                .collect();
        }
        let mut out = Vec::with_capacity(self.levels.len() - level);
        for i in level..self.levels.len() {
            let gen = self.table(i).generation();
            // Full digest when: first contact with this peer on this lane,
            // the periodic safety-net exchange is due, the peer asked for
            // one (missed delta), or our table generation regressed past
            // the marker (reset/restart) — a partial against a vanished
            // baseline would advertise nothing.
            let state = self.delta_sent.get(&(peer, i)).copied();
            let full = match state {
                None => true,
                Some(s) => s.rounds_to_full == 0 || s.sent_gen > gen,
            };
            if full {
                if state.is_some() {
                    obs::metric_add!(self.id, ctr::GOSSIP_FULL_FALLBACKS, 1);
                }
                self.delta_sent.insert(
                    (peer, i),
                    DeltaPeerState {
                        sent_gen: gen,
                        rounds_to_full: crate::config::DELTA_FULL_EXCHANGE_PERIOD - 1,
                    },
                );
                out.push(TableDigest {
                    zone: self.zone(i).clone(),
                    rows: self.digest_at(i),
                    since: 0,
                    gen,
                });
            } else {
                let s = state.expect("partial digest requires prior state");
                let rows: Arc<[RowDigest]> = self.table(i).digest_since(s.sent_gen).into();
                self.delta_sent.insert(
                    (peer, i),
                    DeltaPeerState { sent_gen: gen, rounds_to_full: s.rounds_to_full - 1 },
                );
                // An empty partial digest advertises nothing and triggers
                // nothing — skip it (the marker above still advanced, which
                // is correct: nothing changed, so nothing was skipped).
                if !rows.is_empty() {
                    obs::metric_add!(self.id, ctr::GOSSIP_DELTA_DIGESTS, 1);
                    out.push(TableDigest {
                        zone: self.zone(i).clone(),
                        rows,
                        since: s.sent_gen,
                        gen,
                    });
                }
            }
        }
        out
    }

    /// The digest of `tables[i]`, reusing the cached copy while the table's
    /// generation stands still (typically across the 2-4 fan-outs of one
    /// gossip round).
    fn digest_at(&mut self, i: usize) -> Arc<[RowDigest]> {
        let generation = self.table(i).generation();
        if let Some((g, d)) = &self.levels[i].digest {
            if *g == generation {
                obs::metric_add!(self.id, ctr::DIGEST_CACHE_HITS, 1);
                return Arc::clone(d);
            }
        }
        let d: Arc<[RowDigest]> = self.table(i).digest().into();
        self.levels[i].digest = Some((generation, Arc::clone(&d)));
        d
    }

    /// One gossip round: refresh the local row, evict stale rows, recompute
    /// aggregates, and pick anti-entropy partners. Returns the outbox.
    pub fn on_tick(&mut self, now: SimTime, rng: &mut SmallRng) -> Vec<(u32, GossipMsg)> {
        self.refresh_own_row(now);
        self.gc(now);
        let rs = self.round_state();
        for level in 0..self.levels.len() {
            self.recompute_level(level, now, &rs);
        }

        let mut out = Vec::new();
        for level in 0..self.levels.len() {
            // Members always gossip their leaf-zone table; higher tables are
            // gossiped by the zone's representatives (plus bootstrap duty).
            let eligible = level == 0 || self.is_rep(level - 1) || self.bootstrap_duty(level - 1);
            if !eligible {
                continue;
            }
            let choice = self.peers_cached(level).choose(rng).copied();
            let target = match choice {
                Some(p) => Some(p),
                None if level == 0 || self.table(level).len() <= 1 => {
                    // Discovery fallback: ping a bootstrap contact. Any agent
                    // shares at least the root table with us.
                    self.contacts.as_slice().choose(rng).copied()
                }
                None => None,
            };
            if let Some(peer) = target {
                out.push((peer, GossipMsg::Digest { digests: self.digests_from(level, peer) }));
            }
        }
        // Anti-clique measure: the peer selection above only reaches nodes
        // already present in the tables (or, for co-reps, in possibly
        // *diverged* aggregate rows), so two halves of a zone that
        // bootstrapped independently can each elect their own
        // representatives, keep reissuing their own aggregate row — which
        // always outstamps the foreign one locally — and never merge.
        // Break the symmetry from outside the gossip state: each tick, pick
        // one level and gossip with a uniformly random member of that zone,
        // derived from the static layout. (Real Astrolabe gets this from
        // its join/configuration machinery, which the paper scopes out;
        // see DESIGN.md bootstrap substitution.)
        let bridge_level = rand::Rng::gen_range(rng, 0..self.levels.len());
        if let Some(range) = self.layout.agent_range(self.zone(bridge_level)) {
            let peer = rand::Rng::gen_range(rng, range.clone());
            if peer != self.id {
                out.push((
                    peer,
                    GossipMsg::Digest { digests: self.digests_from(bridge_level, peer) },
                ));
            }
        }
        // Also keep pinging configured contacts occasionally (join seeds).
        if rand::Rng::gen_bool(rng, 0.25) {
            if let Some(&peer) = self.contacts.as_slice().choose(rng) {
                out.push((peer, GossipMsg::Digest { digests: self.digests_from(0, peer) }));
            }
        }
        let rows_held: usize = self.levels.iter().map(|lv| lv.table.len()).sum();
        obs::metric_add!(self.id, ctr::GOSSIP_ROUNDS, 1);
        obs::metric_add!(self.id, ctr::GOSSIP_DIGESTS_SENT, out.len());
        obs::gauge_set!(self.id, gauge::ASTRO_ROWS_HELD, rows_held);
        obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_ROUND, rows_held, out.len());
        for (_, msg) in &out {
            let bytes = msg.wire_size();
            obs::hist_record!(self.id, hist::GOSSIP_DIGEST_BYTES, bytes);
            obs::metric_add!(self.id, ctr::GOSSIP_BYTES_SENT, bytes);
        }
        out
    }

    /// Merges a batch of rows; returns how many rows changed local state.
    fn merge_rows(&mut self, now: SimTime, batches: &[TableRows]) -> usize {
        let mut changed = 0;
        for batch in batches {
            let Some(level) = self.level_of(&batch.zone) else { continue };
            for (label, stamp, row) in &batch.rows {
                changed += usize::from(self.admit(now, level, *label, *stamp, row));
            }
        }
        self.note_merged(changed);
        changed
    }

    /// Takes the stamps `records` name for rows this replica holds with the
    /// same values — digest entries whose hash matched (nothing is pulled)
    /// or refresh records (nothing was shipped) — through the same fences
    /// as a row that travelled. A record whose hash no longer matches the
    /// held values (they changed after the peer compared) is ignored: a
    /// stamp is only ever taken for the values it was issued with. Returns
    /// how many stamps were taken.
    fn restamp<'a>(
        &mut self,
        now: SimTime,
        level: usize,
        records: impl IntoIterator<Item = &'a RowDigest>,
    ) -> usize {
        let (mut taken, mut saved) = (0, 0);
        for rec in records {
            let held = match self.table(level).get(rec.label) {
                Some(held) if held.content_hash() == rec.chash => Arc::clone(held),
                _ => continue,
            };
            if self.admit(now, level, rec.label, rec.stamp, &held) {
                taken += 1;
                // What the row would have cost whole, less the entry that
                // carried the stamp instead.
                saved += (held.wire_size() + 2).saturating_sub(RowDigest::WIRE_SIZE);
            }
        }
        if taken > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_ROWS, taken);
            obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_BYTES_SAVED, saved);
        }
        self.note_merged(taken);
        taken
    }

    fn note_merged(&self, changed: usize) {
        if changed > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_ROWS_MERGED, changed);
            obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_MERGE, changed);
        }
    }

    /// The one way a row enters a table from gossip: `row`'s values under
    /// `stamp`, whether the values travelled or this replica already held
    /// them. Returns whether the table changed.
    ///
    /// Two classes of stale row are rejected outright: rows older than the
    /// hard TTL, and rows at or below a tombstoned stamp (evicted here on
    /// suspicion). Without this, a row evicted locally would be resurrected
    /// by the next gossip exchange with a replica that had not evicted it
    /// yet, and a failed member would never leave the membership. Each
    /// admitted stamp advance also feeds the row's phi detector — gossip
    /// *is* the heartbeat.
    fn admit(
        &mut self,
        now: SimTime,
        level: usize,
        label: u16,
        stamp: Stamp,
        row: &Arc<Mib>,
    ) -> bool {
        if self.validate_ingest && !self.row_is_valid(now, level, label, stamp, row) {
            obs::metric_add!(self.id, ctr::CORRUPT_ROWS_REJECTED, 1);
            obs::trace_event!(self.id, Layer::Astro, kind::CORRUPT_ROW_REJECT, level, label);
            return false;
        }
        let cutoff = now.as_micros().saturating_sub(self.config.row_ttl.as_micros());
        if stamp.issued_us < cutoff {
            return false;
        }
        // Guard the lookup: the tombstone set is empty in a healthy system,
        // and this test runs once per row of every batch.
        if !self.tombstones.is_empty() {
            if let Some(&watermark) = self.tombstones.get(&(level, label)) {
                if stamp.issued_us <= watermark {
                    return false;
                }
            }
        }
        let own = self.own_label(level);
        // Incarnation fence (leaf rows only — that is where nodes publish
        // `incar`): a row from before the peer's last cold restart is
        // dropped outright, and the first row of a *newer* incarnation
        // resets the peer's suspicion state so it is selectable again
        // within one gossip round.
        if level == 0 && label != own {
            let slot_idx = usize::from(label);
            if self.incar_cache.len() <= slot_idx {
                self.incar_cache.resize(slot_idx + 1, None);
            }
            let incar = match &self.incar_cache[slot_idx] {
                Some((m, v)) if Arc::ptr_eq(row, m) => *v,
                _ => {
                    let v = row.get("incar").and_then(AttrValue::as_i64).unwrap_or(0) as u64;
                    self.incar_cache[slot_idx] = Some((Arc::clone(row), v));
                    v
                }
            };
            let seen = self.incar_seen.get(&label).copied().unwrap_or(0);
            if incar < seen {
                return false;
            }
            if incar > seen {
                self.incar_seen.insert(label, incar);
                self.tombstones.remove(&(level, label));
                self.levels[0].detectors.clear(usize::from(label));
                let peer = row.get("id").and_then(AttrValue::as_i64).unwrap_or(-1).max(0) as u32;
                self.incarnation_bumps.push(peer);
                obs::metric_add!(self.id, ctr::INCARNATION_BUMPS, 1);
                obs::trace_event!(self.id, Layer::Astro, kind::INCARNATION_BUMP, peer, incar);
            }
        }
        let (advanced, old_carried_agg) =
            match self.levels[level].table.merge_stamped(label, stamp, Arc::clone(row)) {
                MergeOutcome::Rejected => return false,
                MergeOutcome::Inserted => (true, false),
                MergeOutcome::Replaced { advanced_time, old_carried_agg } => {
                    (advanced_time, old_carried_agg)
                }
            };
        // An admitted row can change the mobile-code scope only when the
        // incoming or displaced version carries `sys$agg:` attrs.
        if row.carries_mobile_code() || old_carried_agg {
            self.scope_epoch += 1;
        }
        if advanced && label != own {
            self.heartbeat(level, label, now);
        }
        true
    }

    /// Structural sanity of a gossiped row — the ingest validator behind
    /// [`Agent::set_ingest_validation`]. Checks are *shape* checks only,
    /// bounds a replica can verify locally without trusting the sender: the
    /// label must fit the zone branching factor, the stamp must not be from
    /// the future (beyond one gossip interval of slack), the attribute count
    /// must be bounded, a leaf row must carry a plausible `id`, and a
    /// claimed membership count must be positive. Value-level lies (a wrong
    /// aggregate under a legitimate stamp) are out of scope here; those are
    /// the host's self-audit problem.
    fn row_is_valid(
        &self,
        now: SimTime,
        level: usize,
        label: u16,
        stamp: Stamp,
        row: &Mib,
    ) -> bool {
        if label >= self.config.branching {
            return false;
        }
        let slack = self.config.gossip_interval.as_micros();
        if stamp.issued_us > now.as_micros().saturating_add(slack) {
            return false;
        }
        if row.len() > MAX_ROW_ATTRS {
            return false;
        }
        if let Some(v) = row.get("nmembers") {
            if !matches!(v.as_i64(), Some(n) if n >= 1) {
                return false;
            }
        }
        if level == 0 {
            let Some(id) = row.get("id").and_then(AttrValue::as_i64) else { return false };
            if id < 0 || id > i64::from(u32::MAX) {
                return false;
            }
        }
        true
    }

    /// Self-audit sweep: evicts held rows (never the agent's own) that fail
    /// the structural validator of [`Agent::set_ingest_validation`]. The
    /// target is corruption anti-entropy cannot see: a row scrambled in
    /// place under its original stamp matches every replica's digest, so no
    /// peer ever re-offers the intact bytes. Evicting the row makes the
    /// label *missing* here, and the next digest exchange re-fetches the
    /// good row from any neighbor. Deliberately no tombstone — the intact
    /// row carries the very stamp a tombstone would fence out. Returns how
    /// many rows were evicted.
    pub fn scrub(&mut self, now: SimTime) -> u64 {
        let mut evicted = 0u64;
        for level in 0..self.levels.len() {
            let own = self.own_label(level);
            let bad: Vec<(u16, bool)> = self.levels[level]
                .table
                .rows()
                .iter()
                .filter(|r| {
                    r.label != own && !self.row_is_valid(now, level, r.label, r.stamp, &r.mib)
                })
                .map(|r| (r.label, r.mib.carries_mobile_code()))
                .collect();
            for (label, carried_agg) in bad {
                self.evict(level, label, carried_agg);
                evicted += 1;
            }
        }
        if evicted > 0 {
            obs::metric_add!(self.id, ctr::SELF_AUDIT_REPAIRS, evicted);
            // a=1: zone-table scrub repair site (hosts use other codes).
            obs::trace_event!(self.id, Layer::Astro, kind::SELF_AUDIT_REPAIR, 1, evicted);
        }
        evicted
    }

    /// Fault injection: scrambles up to `n` randomly chosen held rows
    /// (never the agent's own) *in place*, keeping each row's stamp so the
    /// corruption is invisible to digest-driven anti-entropy. The scramble
    /// is structural — the `id` attribute vanishes and `nmembers` goes
    /// negative — so the ingest validator and [`Agent::scrub`] can detect
    /// it; all other attributes (including mobile code) are preserved.
    /// Returns how many rows were actually changed.
    pub fn corrupt_rows(&mut self, rng: &mut SmallRng, n: u32) -> u64 {
        let mut candidates: Vec<(usize, u16)> = Vec::new();
        for level in 0..self.levels.len() {
            let own = self.own_label(level);
            candidates.extend(
                self.table(level).iter().filter(|&(l, _)| l != own).map(|(l, _)| (level, l)),
            );
        }
        candidates.shuffle(rng);
        candidates.truncate(n as usize);
        let mut scrambled = 0u64;
        for (level, label) in candidates {
            let old = self.table(level).row(label).expect("candidate row is held");
            let mut attrs: Vec<(AttrName, AttrValue)> =
                old.mib.attrs().iter().filter(|(name, _)| name.as_ref() != "id").cloned().collect();
            attrs.push((AttrName::from("nmembers"), AttrValue::Int(-1)));
            let scrambled_row = Arc::new(Mib::new(old.stamp, attrs));
            if self.levels[level].table.force_replace(label, scrambled_row) {
                scrambled += 1;
            }
        }
        scrambled
    }

    /// Index of `zone` within this agent's chain, if replicated here.
    pub fn level_of(&self, zone: &ZoneId) -> Option<usize> {
        let depth = zone.depth();
        let leaf_depth = self.zone(0).depth();
        if depth > leaf_depth {
            return None;
        }
        let level = leaf_depth - depth;
        (self.zone(level) == zone).then_some(level)
    }

    /// Handles an incoming gossip message; returns the outbox.
    pub fn on_message(
        &mut self,
        now: SimTime,
        from: u32,
        msg: GossipMsg,
        _rng: &mut SmallRng,
    ) -> Vec<(u32, GossipMsg)> {
        let out = match msg {
            GossipMsg::Digest { digests } => {
                obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_DIGEST, from, digests.len());
                self.on_digest(now, from, &digests)
            }
            GossipMsg::DigestReply { rows, want, refresh, want_full } => {
                self.merge_rows(now, &rows);
                for (zone, records) in &refresh {
                    if let Some(level) = self.level_of(zone) {
                        self.restamp(now, level, records);
                    }
                }
                for zone in &want_full {
                    // The peer missed a delta: drop the lane state so our
                    // next digest to it is full.
                    if let Some(level) = self.level_of(zone) {
                        self.delta_sent.remove(&(from, level));
                    }
                }
                let mut send = Vec::new();
                for (zone, labels) in &want {
                    let Some(level) = self.level_of(zone) else { continue };
                    let rows = self.rows_of(level, labels);
                    if !rows.is_empty() {
                        send.push(TableRows { zone: zone.clone(), rows });
                    }
                }
                if send.is_empty() {
                    Vec::new()
                } else {
                    vec![(from, GossipMsg::Rows { rows: send })]
                }
            }
            GossipMsg::Rows { rows } => {
                self.merge_rows(now, &rows);
                Vec::new()
            }
        };
        for (_, msg) in &out {
            obs::metric_add!(self.id, ctr::GOSSIP_BYTES_SENT, msg.wire_size());
        }
        out
    }

    /// Hop 1 → hop 2: compares each advertised table with this replica
    /// ([`ZoneTable::diff_into`]), takes the stamps of rows whose values it
    /// already holds, and replies with what the sender lacks — whole rows
    /// where the values differ, refresh records where only the stamp does —
    /// plus the want-list, and on the delta wire `want_full` for a partial
    /// digest whose baseline this replica never processed. In steady state
    /// (replicas in sync) this allocates nothing.
    fn on_digest(
        &mut self,
        now: SimTime,
        from: u32,
        digests: &[TableDigest],
    ) -> Vec<(u32, GossipMsg)> {
        let mut rows = Vec::new();
        let mut want = Vec::new();
        let mut refresh = Vec::new();
        let mut want_full = Vec::new();
        // One scratch diff serves every digest; the reply steals a list
        // only when it is non-empty.
        let mut diff = std::mem::take(&mut self.scratch_diff);
        for d in digests {
            let Some(level) = self.level_of(&d.zone) else { continue };
            if self.lane_gap(from, level, d) {
                want_full.push(d.zone.clone());
            }
            self.table(level).diff_into(&d.rows, d.since == 0, &mut diff);
            self.restamp(now, level, diff.adopt.iter().map(|&at| &d.rows[at as usize]));
            if !diff.ship.is_empty() {
                rows.push(TableRows {
                    zone: d.zone.clone(),
                    rows: self.rows_of(level, &diff.ship),
                });
            }
            if !diff.refresh.is_empty() {
                refresh.push((d.zone.clone(), std::mem::take(&mut diff.refresh)));
            }
            if !diff.want.is_empty() {
                want.push((d.zone.clone(), std::mem::take(&mut diff.want)));
            }
        }
        self.scratch_diff = diff;
        let sent: usize = rows.iter().map(|t| t.rows.len()).sum();
        let wanted: usize = want.iter().map(|(_, ls)| ls.len()).sum();
        if sent + wanted > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_DIFF_ROWS, sent + wanted);
            obs::hist_record!(self.id, hist::GOSSIP_DIFF_ROWS, sent + wanted);
            obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_DIFF, sent, wanted);
        }
        if rows.is_empty() && want.is_empty() && refresh.is_empty() && want_full.is_empty() {
            Vec::new()
        } else {
            vec![(from, GossipMsg::DigestReply { rows, want, refresh, want_full })]
        }
    }

    /// The held rows of `labels` at `level`, as they travel.
    fn rows_of(&self, level: usize, labels: &[u16]) -> Vec<(u16, Stamp, Arc<Mib>)> {
        let table = self.table(level);
        labels
            .iter()
            .filter_map(|&l| table.row(l).map(|r| (l, r.stamp, Arc::clone(&r.mib))))
            .collect()
    }

    /// Delta gossip's receiver half of a `(from, level)` lane: whether the
    /// partial digest `d` starts past the last generation processed on it,
    /// i.e. a delta went missing. A full digest needs no baseline and
    /// leaves no lane state; a lane without an entry last processed a full
    /// digest, which is the baseline the sender's next partial counts from.
    fn lane_gap(&mut self, from: u32, level: usize, d: &TableDigest) -> bool {
        if d.since == 0 {
            if !self.peer_gen_seen.is_empty() {
                self.peer_gen_seen.remove(&(from, level));
            }
            return false;
        }
        let seen = self.peer_gen_seen.entry((from, level)).or_insert(d.since);
        let gap = *seen < d.since;
        *seen = (*seen).max(d.gen);
        gap
    }

    /// Evaluates an ad-hoc aggregation program against this agent's replica
    /// of `zone`'s table — the interactive data-mining read path of §3
    /// (distinct from [`Agent::install_aggregation`], which changes what the
    /// whole system computes continuously).
    ///
    /// Returns `None` when the agent does not replicate `zone`.
    ///
    /// # Errors
    ///
    /// Propagates parse errors in `program`; evaluation type errors surface
    /// as the evaluator's error.
    pub fn query(
        &self,
        zone: &ZoneId,
        program: &str,
    ) -> Option<Result<Vec<(String, AttrValue)>, String>> {
        let level = self.level_of(zone)?;
        let prog = match parse_program(program) {
            Ok(p) => p,
            Err(e) => return Some(Err(e.to_string())),
        };
        Some(run_program(&prog, self.table(level).rows()).map_err(|e| e.to_string()))
    }

    /// Clears all replicated state except identity (cold restart).
    pub fn reset(&mut self) {
        // Table generations restart at zero, so the digests, summaries and
        // peer lists keyed on the old counters go with the rows.
        for lv in &mut self.levels {
            lv.table = ZoneTable::new(lv.table.zone.clone());
            lv.detectors.clear_all();
            (lv.digest, lv.agg, lv.peers) = (None, None, None);
        }
        self.version = 0;
        self.tombstones.clear();
        self.incar_seen.clear();
        self.incar_cache.clear();
        self.incarnation_bumps.clear();
        // The mobile-code scope shrank to the locally installed programs, so
        // the round state must be rebuilt too. (The own-row cache survives:
        // `local` did not change.)
        self.scope_epoch += 1;
        self.scope_cache = None;
        // Delta-gossip lanes reference the old generation counters on both
        // sides; a partial digest against a pre-reset baseline would be
        // silently wrong, so force full exchanges all around.
        self.delta_sent.clear();
        self.peer_gen_seen.clear();
    }

    /// Current phi suspicion level for the row at `(level, label)`, if a
    /// detector has observed it (diagnostics and host-layer reuse).
    pub fn suspicion(&self, level: usize, label: u16, now: SimTime) -> Option<f64> {
        self.levels.get(level)?.detectors.phi(usize::from(label), now)
    }

    /// Heap bytes the failure detectors of `level` own (memory accounting):
    /// zero until the level's first foreign row, then two exact allocations
    /// sized to the zone's child count.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn detector_heap_bytes(&self, level: usize) -> usize {
        self.levels[level].detectors.heap_bytes()
    }
}

/// Compiles mobile-code `src`, caching the result (including failures, so a
/// bad program is not re-parsed every round). A free function rather than a
/// method so callers can hold other `Agent` fields borrowed.
fn compile_cached(
    cache: &mut HashMap<String, Option<Arc<AggProgram>>>,
    src: &str,
) -> Option<Arc<AggProgram>> {
    if let Some(hit) = cache.get(src) {
        return hit.clone();
    }
    let parsed = parse_program(src).ok().map(Arc::new);
    cache.insert(src.to_owned(), parsed.clone());
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{fork, SimDuration};

    fn small_config() -> Config {
        Config {
            branching: 4,
            gossip_interval: SimDuration::from_secs(1),
            row_ttl: SimDuration::from_secs(20),
            ..Config::standard()
        }
    }

    /// Drives a set of agents through synchronous rounds with perfect
    /// message delivery — a harness for protocol-logic tests (network
    /// effects are covered by the simnet-based integration tests).
    fn run_rounds(agents: &mut [Agent], rounds: usize, start: u64) -> u64 {
        let mut rng = fork(42, 0);
        let mut t = start;
        for _ in 0..rounds {
            t += 1_000_000;
            let now = SimTime::from_micros(t);
            let mut inflight: Vec<(u32, u32, GossipMsg)> = Vec::new();
            for a in agents.iter_mut() {
                for (to, m) in a.on_tick(now, &mut rng) {
                    inflight.push((a.id(), to, m));
                }
            }
            // Deliver to fixpoint within the round.
            while let Some((from, to, msg)) = inflight.pop() {
                let Some(b) = agents.iter_mut().find(|a| a.id() == to) else { continue };
                for (to2, m2) in b.on_message(now, from, msg, &mut rng) {
                    inflight.push((to, to2, m2));
                }
            }
        }
        t
    }

    fn make_agents(n: u32, branching: u16) -> Vec<Agent> {
        let layout = ZoneLayout::new(n, branching);
        let mut config = small_config();
        config.branching = branching;
        (0..n)
            .map(|i| {
                // Give everyone one global contact (agent 0) for discovery.
                Agent::new(i, &layout, config.clone(), vec![0])
            })
            .collect()
    }

    fn make_delta_agents(n: u32, branching: u16) -> Vec<Agent> {
        let layout = ZoneLayout::new(n, branching);
        let mut config = small_config();
        config.branching = branching;
        config.delta_gossip = true;
        (0..n).map(|i| Agent::new(i, &layout, config.clone(), vec![0])).collect()
    }

    #[test]
    fn delta_gossip_converges_like_full() {
        let mut agents = make_delta_agents(12, 4);
        run_rounds(&mut agents, 12, 0);
        for a in &agents {
            let total: i64 = a
                .root_table()
                .iter()
                .filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64()))
                .sum();
            assert_eq!(total, 12, "agent {} sees nmembers {total}", a.id());
        }
    }

    #[test]
    fn delta_digest_goes_partial_then_full_on_generation_gap() {
        let mut agents = make_delta_agents(2, 4);
        let t = run_rounds(&mut agents, 4, 0);
        let (left, right) = agents.split_at_mut(1);
        let (a, b) = (&mut left[0], &mut right[0]);
        let mut rng = fork(7, 0);

        let at = |s: u64| SimTime::from_micros(t + s * 1_000_000);
        a.delta_sent.clear(); // normalize: next digest to b is full
        let full = a.digests_from(0, b.id());
        assert!(full.iter().all(|d| d.since == 0), "first digest after reset is full");
        assert!(full.iter().all(|d| d.gen > 0), "delta digests carry the generation");
        b.on_message(at(0), a.id(), GossipMsg::Digest { digests: full }, &mut rng);
        assert!(!b.peer_gen_seen.contains_key(&(a.id(), 0)), "a full digest leaves no lane state");

        // The partial after it counts from the full one: no gap.
        a.refresh_own_row(at(1));
        let partial = a.digests_from(0, b.id());
        assert!(partial.iter().all(|d| d.since > 0), "second digest is partial");
        let out = b.on_message(at(1), a.id(), GossipMsg::Digest { digests: partial }, &mut rng);
        assert!(
            out.iter().all(|(_, m)| !matches!(m, GossipMsg::DigestReply { want_full, .. }
                if !want_full.is_empty())),
            "a partial right after a full one has its baseline"
        );

        // Change a's table, build a partial digest... and lose it.
        a.refresh_own_row(at(2));
        let lost = a.digests_from(0, b.id());
        assert!(lost.iter().all(|d| d.since > 0));

        // The next partial's baseline is a generation b never processed.
        a.refresh_own_row(at(3));
        let gapped = a.digests_from(0, b.id());
        assert!(gapped.iter().all(|d| d.since > 0));
        let now = at(3);
        let out = b.on_message(now, a.id(), GossipMsg::Digest { digests: gapped }, &mut rng);
        let Some((to, GossipMsg::DigestReply { want_full, .. })) = out.first() else {
            panic!("gap must produce a reply");
        };
        assert_eq!(*to, a.id());
        assert!(!want_full.is_empty(), "missed delta must request a full exchange");

        // Receiving want_full drops the lane state: next digest is full.
        let reply = out.into_iter().next().unwrap().1;
        a.on_message(now, b.id(), reply, &mut rng);
        let healed = a.digests_from(0, b.id());
        assert!(healed.iter().all(|d| d.since == 0), "want_full forces a full digest");
    }

    #[test]
    fn setting_an_attribute_to_its_value_keeps_the_own_row_shared() {
        let layout = ZoneLayout::new(4, 4);
        let mut a = Agent::new(0, &layout, Config::standard(), vec![]);
        let label = a.own_label(0);
        a.set_local_attr("load", 2.0);
        a.refresh_own_row(SimTime::from_secs(1));
        let first = a.table(0).row(label).unwrap().clone();
        // The per-tick re-publication of an unchanged load: a re-stamp.
        a.set_local_attr("load", 2.0);
        a.refresh_own_row(SimTime::from_secs(2));
        let second = a.table(0).row(label).unwrap().clone();
        assert!(second.stamp > first.stamp);
        assert!(Arc::ptr_eq(&second.mib, &first.mib), "an equal value must not rebuild the row");
        // A changed value still rebuilds it.
        a.set_local_attr("load", 3.0);
        a.refresh_own_row(SimTime::from_secs(3));
        let third = a.table(0).get(label).unwrap();
        assert!(!Arc::ptr_eq(third, &second.mib));
        assert_eq!(third.get("load"), Some(&AttrValue::Float(3.0)));
    }

    #[test]
    fn delta_full_exchange_period_bounds_partial_streak() {
        let mut agents = make_delta_agents(2, 4);
        let t = run_rounds(&mut agents, 4, 0);
        let a = &mut agents[0];
        a.delta_sent.clear();
        let mut fulls = 0;
        for i in 0..=crate::config::DELTA_FULL_EXCHANGE_PERIOD {
            a.refresh_own_row(SimTime::from_micros(t + u64::from(i + 1) * 1_000_000));
            let ds = a.digests_from(0, 1);
            if ds.iter().all(|d| d.since == 0) {
                fulls += 1;
            }
        }
        assert_eq!(fulls, 2, "first digest and the periodic safety net are full");
    }

    #[test]
    fn a_digest_entry_for_held_values_is_adopted_on_both_wires() {
        for mut agents in [make_agents(2, 4), make_delta_agents(2, 4)] {
            let t = run_rounds(&mut agents, 4, 0);
            let (left, right) = agents.split_at_mut(1);
            let (a, b) = (&mut left[0], &mut right[0]);
            let mut rng = fork(9, 0);
            let label = a.own_label(0);

            // A heartbeat re-stamp of a's own row: same attrs, newer stamp.
            a.refresh_own_row(SimTime::from_micros(t + 1_000_000));
            let stamp = a.table(0).row(label).unwrap().stamp;
            assert!(stamp > b.table(0).row(label).unwrap().stamp);
            let held = Arc::clone(b.table(0).get(label).unwrap());

            a.delta_sent.clear();
            let digests = a.digests_from(0, b.id());
            let now = SimTime::from_micros(t + 1_000_000);
            let out = b.on_message(now, a.id(), GossipMsg::Digest { digests }, &mut rng);
            let row = b.table(0).row(label).unwrap();
            assert_eq!(row.stamp, stamp, "receiver adopts the stamp straight from the digest");
            assert!(Arc::ptr_eq(&row.mib, &held), "and keeps the values it held");
            for (_, msg) in &out {
                if let GossipMsg::DigestReply { want, .. } = msg {
                    assert!(
                        want.iter().all(|(_, ls)| !ls.contains(&label)),
                        "no row transfer for a content-identical re-stamp"
                    );
                }
            }
        }
    }

    #[test]
    fn a_replier_newer_on_stamp_only_sends_a_refresh_record() {
        for mut agents in [make_agents(2, 4), make_delta_agents(2, 4)] {
            let t = run_rounds(&mut agents, 4, 0);
            let (left, right) = agents.split_at_mut(1);
            let (a, b) = (&mut left[0], &mut right[0]);
            let mut rng = fork(9, 0);
            let label = b.own_label(0);
            let now = SimTime::from_micros(t + 1_000_000);

            // b heartbeats its own row; a's digest still names the old stamp.
            b.refresh_own_row(now);
            a.delta_sent.clear();
            let digests = a.digests_from(0, b.id());
            let out = b.on_message(now, a.id(), GossipMsg::Digest { digests }, &mut rng);
            let [(to, GossipMsg::DigestReply { rows, refresh, .. })] = out.as_slice() else {
                panic!("b must answer a digest it is newer than: {out:?}");
            };
            assert_eq!(*to, a.id());
            assert!(rows.iter().all(|t| t.rows.iter().all(|(l, _, _)| *l != label)));
            let stamp = b.table(0).row(label).unwrap().stamp;
            assert!(refresh
                .iter()
                .any(|(_, rs)| rs.iter().any(|r| r.label == label && r.stamp == stamp)));
            let reply = out.into_iter().next().unwrap().1;
            a.on_message(now, b.id(), reply, &mut rng);
            assert_eq!(a.table(0).row(label).unwrap().stamp, stamp, "a takes the stamp");
        }
    }

    #[test]
    fn single_level_converges_to_full_membership() {
        let mut agents = make_agents(4, 4); // all in the root's single leaf table
        run_rounds(&mut agents, 6, 0);
        for a in &agents {
            assert_eq!(a.levels(), 1);
            assert_eq!(a.table(0).len(), 4, "agent {} sees {} rows", a.id(), a.table(0).len());
        }
    }

    #[test]
    fn two_level_tree_aggregates_membership_count() {
        let mut agents = make_agents(12, 4); // 3 leaf zones of 4 under the root
        run_rounds(&mut agents, 12, 0);
        for a in &agents {
            assert_eq!(a.levels(), 2);
            let total: i64 = a
                .root_table()
                .iter()
                .filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64()))
                .sum();
            assert_eq!(total, 12, "agent {} sees nmembers {total}", a.id());
        }
    }

    #[test]
    fn reps_elected_and_bounded() {
        let mut agents = make_agents(12, 4);
        run_rounds(&mut agents, 12, 0);
        let a = &agents[5];
        for (_, row) in a.root_table().iter() {
            let AttrValue::Set(reps) = row.get("reps").expect("reps computed") else {
                panic!("reps has wrong type")
            };
            assert!(!reps.is_empty() && reps.len() <= 2, "reps {reps:?}");
        }
        // Exactly the elected reps consider themselves representatives.
        let rep_ids: std::collections::BTreeSet<u64> =
            agents.iter().filter(|ag| ag.is_rep(0)).map(|ag| u64::from(ag.id())).collect();
        for ag in &agents {
            let parent_row = ag.table(1).get(ag.own_label(1)).unwrap();
            if let Some(AttrValue::Set(s)) = parent_row.get("reps") {
                if s.contains(&u64::from(ag.id())) {
                    assert!(rep_ids.contains(&u64::from(ag.id())));
                }
            }
        }
    }

    #[test]
    fn local_attr_aggregates_to_root() {
        let mut agents = make_agents(12, 4);
        for a in agents.iter_mut() {
            a.set_local_attr("load", 0.5f64);
        }
        agents[7].set_local_attr("load", 0.05f64);
        run_rounds(&mut agents, 12, 0);
        // MIN(load) at the root over agent 7's zone (/1) must be 0.05.
        let a = &agents[0];
        let zone_of_7 = 7 / 4; // label 1
        let row = a.root_table().get(zone_of_7 as u16).expect("zone row");
        assert_eq!(row.get("load").and_then(|v| v.as_f64()), Some(0.05));
    }

    #[test]
    fn mobile_aggregation_propagates_from_one_node() {
        let mut agents = make_agents(12, 4);
        for a in agents.iter_mut() {
            a.set_local_attr("temp", 20i64);
        }
        agents[3].set_local_attr("temp", 95i64);
        // Install MAX(temp) at a single node; the program must reach every
        // branch of the tree via gossip and take effect there.
        agents[0].install_aggregation("hot", "SELECT MAX(temp) AS hottest");
        run_rounds(&mut agents, 16, 0);
        for a in &agents {
            let max_at_root: i64 = a
                .root_table()
                .iter()
                .filter_map(|(_, r)| r.get("hottest").and_then(|v| v.as_i64()))
                .max()
                .expect("hottest computed everywhere");
            assert_eq!(max_at_root, 95, "agent {}", a.id());
        }
    }

    #[test]
    fn failure_detection_evicts_silent_member() {
        let mut agents = make_agents(8, 4);
        let t = run_rounds(&mut agents, 8, 0);
        assert!(agents[0].table(0).get(1).is_some(), "agent 1 known before failure");
        // Remove agent 1 (slot 1 of zone 0) and keep gossiping past the TTL.
        let mut survivors: Vec<Agent> = agents.into_iter().filter(|a| a.id() != 1).collect();
        run_rounds(&mut survivors, 30, t);
        let a0 = &survivors[0];
        assert!(a0.table(0).get(1).is_none(), "stale row must be evicted");
        let row = a0.root_table().get(0).expect("zone row");
        assert_eq!(row.get("nmembers").and_then(|v| v.as_i64()), Some(3));
    }

    #[test]
    fn phi_evicts_before_hard_ttl() {
        // With a 20s TTL a silent member used to linger for 20 rounds; the
        // phi detector, having learned the ~1s refresh cadence, suspects it
        // within a handful of rounds.
        let mut agents = make_agents(8, 4);
        let t = run_rounds(&mut agents, 8, 0);
        let mut survivors: Vec<Agent> = agents.into_iter().filter(|a| a.id() != 1).collect();
        let t2 = run_rounds(&mut survivors, 10, t);
        assert!(
            SimTime::from_micros(t2).since(SimTime::from_micros(t)) < small_config().row_ttl,
            "test horizon must stay inside the TTL for this to mean anything"
        );
        assert!(
            survivors[0].table(0).get(1).is_none(),
            "phi should evict the silent member before the hard TTL"
        );
        // The detector state is queryable while a row is alive.
        let a0 = &survivors[0];
        assert!(a0.suspicion(0, 2, SimTime::from_micros(t2)).is_some());
        assert!(a0.suspicion(0, 1, SimTime::from_micros(t2)).is_none(), "evicted: gone");
    }

    #[test]
    fn level_of_rejects_foreign_zones() {
        let layout = ZoneLayout::new(16, 4);
        let a = Agent::new(0, &layout, small_config(), vec![]);
        assert_eq!(a.level_of(&ZoneId::root()), Some(1));
        assert_eq!(a.level_of(&ZoneId::root().child(0)), Some(0));
        assert_eq!(a.level_of(&ZoneId::root().child(1)), None);
        assert_eq!(a.level_of(&ZoneId::root().child(0).child(0)), None);
    }

    #[test]
    fn level_record_stays_compact() {
        // Three or four of these sit in one allocation per agent; the bank
        // header (tuning + three empty vectors) is the largest member.
        let size = std::mem::size_of::<Level>();
        assert!(size <= 256, "Level is {size} B");
    }

    #[test]
    fn reserved_attrs_cannot_be_spoofed() {
        let layout = ZoneLayout::new(4, 4);
        let mut a = Agent::new(2, &layout, small_config(), vec![]);
        a.set_local_attr("id", 999i64);
        a.set_local_attr("nmembers", 50i64);
        let mut rng = fork(0, 0);
        a.on_tick(SimTime::from_secs(1), &mut rng);
        let row = a.table(0).get(2).unwrap();
        assert_eq!(row.get("id").and_then(|v| v.as_i64()), Some(2));
        assert_eq!(row.get("nmembers").and_then(|v| v.as_i64()), Some(1));
    }

    #[test]
    fn reset_clears_tables_but_keeps_identity() {
        let mut agents = make_agents(4, 4);
        run_rounds(&mut agents, 4, 0);
        assert!(agents[2].table(0).len() > 1);
        agents[2].reset();
        assert_eq!(agents[2].table(0).len(), 0);
        assert_eq!(agents[2].id(), 2);
    }

    #[test]
    fn incarnation_attr_only_when_nonzero() {
        let layout = ZoneLayout::new(4, 4);
        let mut a = Agent::new(2, &layout, small_config(), vec![]);
        let mut rng = fork(0, 0);
        a.on_tick(SimTime::from_secs(1), &mut rng);
        assert!(
            a.table(0).get(2).unwrap().get("incar").is_none(),
            "incarnation 0 must not appear on the wire (legacy byte-compat)"
        );
        a.set_incarnation(77);
        assert_eq!(a.incarnation(), 77);
        a.on_tick(SimTime::from_secs(2), &mut rng);
        assert_eq!(a.table(0).get(2).unwrap().get("incar").and_then(|v| v.as_i64()), Some(77));
    }

    #[test]
    fn newer_incarnation_fences_stale_rows_and_reports_bump() {
        let mut agents = make_agents(4, 4);
        let t = run_rounds(&mut agents, 6, 0);
        assert!(agents[0].table(0).get(1).unwrap().get("incar").is_none());
        // Cold restart of agent 1: replicated state gone, incarnation bumped.
        agents[1].reset();
        agents[1].set_incarnation(t + 1);
        let t2 = run_rounds(&mut agents, 4, t);
        let row = agents[0].table(0).get(1).expect("restarted node re-joined");
        assert_eq!(row.get("incar").and_then(|v| v.as_i64()), Some((t + 1) as i64));
        let bumps = agents[0].take_incarnation_bumps();
        assert!(bumps.contains(&1), "host must observe the bump: {bumps:?}");
        assert!(agents[0].take_incarnation_bumps().is_empty(), "drain empties the list");
        // Forge a pre-restart (incarnation-0) row with an artificially newer
        // stamp: newest-wins would admit it, the incarnation fence must not.
        let mut b = MibBuilder::new();
        b.set("id", 1i64);
        let forged = Arc::new(Mib::new(
            Stamp { issued_us: t2 + 10_000_000, version: 9_999, origin: 1 },
            b.into_attrs(),
        ));
        let zone = agents[0].zone(0).clone();
        let changed = agents[0].merge_rows(
            SimTime::from_micros(t2 + 1),
            &[TableRows { zone, rows: vec![(1, forged.stamp, forged)] }],
        );
        assert_eq!(changed, 0, "stale-incarnation row must be fenced");
        assert!(agents[0].table(0).get(1).unwrap().get("incar").is_some());
    }

    /// A hand-crafted malformed row batch: out-of-range label, future
    /// stamp, and a leaf row with no `id`.
    fn malformed_batch(zone: ZoneId) -> GossipMsg {
        let stamp = |t: u64, o: u32| Stamp { issued_us: t, version: 1, origin: o };
        let row = |label: u16, b: MibBuilder, s: Stamp| (label, s, Arc::new(b.build(s)));
        GossipMsg::Rows {
            rows: vec![TableRows {
                zone,
                rows: vec![
                    row(63, MibBuilder::new().attr("id", 2i64), stamp(1_000_000, 2)),
                    row(2, MibBuilder::new().attr("id", 2i64), stamp(999_000_000, 2)),
                    row(3, MibBuilder::new().attr("load", 0.5f64), stamp(1_000_000, 3)),
                ],
            }],
        }
    }

    #[test]
    fn ingest_validation_rejects_malformed_rows() {
        let layout = ZoneLayout::new(4, 4);
        let mut b = Agent::new(1, &layout, small_config(), vec![0]);
        b.set_ingest_validation(true);
        let mut rng = fork(9, 0);
        let now = SimTime::from_secs(1);
        b.on_tick(now, &mut rng);
        let held = b.table(0).len();
        b.on_message(now, 2, malformed_batch(b.zone(0).clone()), &mut rng);
        assert_eq!(b.table(0).len(), held, "malformed rows must not merge");
        // A well-formed row from the same sender still merges.
        let good =
            Arc::new(MibBuilder::new().attr("id", 2i64).attr("nmembers", 1i64).build(Stamp {
                issued_us: 900_000,
                version: 1,
                origin: 2,
            }));
        let msg = GossipMsg::Rows {
            rows: vec![TableRows { zone: b.zone(0).clone(), rows: vec![(2, good.stamp, good)] }],
        };
        b.on_message(now, 2, msg, &mut rng);
        assert_eq!(b.table(0).len(), held + 1, "validation must not block honest rows");
    }

    #[test]
    fn validation_off_admits_what_validation_on_rejects() {
        // Control for the test above: the same malformed batch merges when
        // validation is off (the pre-hardening behavior), so the test is
        // exercising the validator and not some other fence.
        let layout = ZoneLayout::new(4, 4);
        let mut b = Agent::new(1, &layout, small_config(), vec![0]);
        let mut rng = fork(9, 0);
        let now = SimTime::from_secs(1);
        b.on_tick(now, &mut rng);
        let held = b.table(0).len();
        b.on_message(now, 2, malformed_batch(b.zone(0).clone()), &mut rng);
        assert!(b.table(0).len() > held, "without validation the malformed rows merge");
    }

    #[test]
    fn scrub_evicts_in_place_corruption_and_gossip_reheals() {
        let mut agents = make_agents(4, 4);
        let t = run_rounds(&mut agents, 6, 0);
        let now = SimTime::from_micros(t);
        assert_eq!(agents[0].table(0).len(), 4);
        assert_eq!(agents[0].scrub(now), 0, "healthy state needs no repair");

        let mut rng = fork(5, 1);
        let hit = agents[0].corrupt_rows(&mut rng, 2);
        assert_eq!(hit, 2);
        let evicted = agents[0].scrub(now);
        assert_eq!(evicted, hit, "scrub evicts exactly the scrambled rows");
        assert_eq!(agents[0].table(0).len(), 2);

        // The evicted labels are missing (not tombstoned), so anti-entropy
        // re-learns the intact rows from any neighbor.
        let t = run_rounds(&mut agents, 4, t);
        assert_eq!(agents[0].table(0).len(), 4);
        for (_, row) in agents[0].table(0).iter() {
            assert!(row.get("id").is_some(), "re-learned rows are intact");
        }
        assert_eq!(agents[0].scrub(SimTime::from_micros(t)), 0);
    }

    #[test]
    fn adhoc_query_over_replicas() {
        let mut agents = make_agents(12, 4);
        for (i, a) in agents.iter_mut().enumerate() {
            a.set_local_attr("temp", i as i64 * 10);
        }
        run_rounds(&mut agents, 12, 0);
        let a = &agents[0];
        // Query the leaf-zone table (members 0..4).
        let out = a
            .query(a.zone(0), "SELECT MAX(temp) AS t, COUNT() AS n")
            .expect("replicated")
            .expect("evaluates");
        let get = |k: &str| out.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("t"), Some(AttrValue::Int(30)));
        assert_eq!(get("n"), Some(AttrValue::Int(4)));
        // Root query over zone summaries.
        let out = a.query(&ZoneId::root(), "SELECT SUM(nmembers) AS n").unwrap().unwrap();
        assert_eq!(out[0].1, AttrValue::Int(12));
        // Foreign zone: not replicated here.
        assert!(a.query(&ZoneId::root().child(9), "SELECT COUNT() AS n").is_none());
        // Malformed program: error, not panic.
        assert!(a.query(&ZoneId::root(), "SELEKT").unwrap().is_err());
    }

    #[test]
    fn gossip_wire_sizes_are_positive_and_ordered() {
        let mut agents = make_agents(8, 4);
        let mut rng = fork(1, 1);
        let out = agents[0].on_tick(SimTime::from_secs(1), &mut rng);
        assert!(!out.is_empty());
        for (_, m) in &out {
            assert!(m.wire_size() > 8);
        }
        // Delta gossip may legitimately shrink a round to a digest-only
        // exchange, but never to a free one.
        let mut agents = make_delta_agents(8, 4);
        let mut rng = fork(1, 1);
        let out = agents[0].on_tick(SimTime::from_secs(1), &mut rng);
        assert!(!out.is_empty());
        for (_, m) in &out {
            assert!(m.wire_size() > 0);
        }
    }
}
