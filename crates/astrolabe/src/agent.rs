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

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use obs::{ctr, gauge, hist, kind, Layer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use simnet::SimTime;

use crate::agg::{parse_program, run_program, AggProgram};
use crate::config::Config;
use crate::mib::{AttrName, Mib, MibBuilder, Stamp};
use crate::table::{Diff, MergeOutcome, RowDigest, ZoneTable};
use crate::value::AttrValue;
use crate::zone::{ZoneId, ZoneLayout};
use timeout::Timeouts;

pub use crate::mib::AGG_ATTR_PREFIX;

mod footprint;
mod timeout;
pub use footprint::Footprint;

/// Defense-in-depth bound on attributes per ingested row: honest rows carry
/// a couple of dozen attributes (locals, core aggregates, mobile code), so
/// anything past this is a memory-amplification attempt, not data.
const MAX_ROW_ATTRS: usize = 256;

/// Digest of one table for anti-entropy exchange.
///
/// The row digests are shared (`Arc`): an agent fanning the same digest out
/// to several peers in one tick clones a pointer, not the stamp list, and
/// keeps no copy once the tick's messages are gone.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDigest {
    /// The zone whose table is being advertised.
    pub zone: ZoneId,
    /// Per-row version stamps and content hashes of every held row.
    pub rows: Arc<[RowDigest]>,
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
        /// or that the digest did not list.
        rows: Vec<TableRows>,
        /// `(zone, labels)` the replier wants.
        want: Vec<(ZoneId, Vec<u16>)>,
        /// Stamp-refresh records `(label, stamp, hash)`: rows where the
        /// replier held the digest's values under a newer stamp. The
        /// receiver takes the stamp for the row it holds only while that
        /// row's values still hash to the record's `chash`.
        refresh: Vec<(ZoneId, Vec<RowDigest>)>,
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
        GossipMsg::DigestReply { rows: Vec::new(), want: Vec::new(), refresh: Vec::new() }
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
            GossipMsg::Digest { digests } => {
                digests.iter().map(|d| entries_size(&d.zone, &d.rows)).sum::<usize>()
            }
            GossipMsg::DigestReply { rows, want, refresh } => {
                rows_size(rows)
                    + want.iter().map(|(z, ls)| zone_size(z) + ls.len() * 2).sum::<usize>()
                    + refresh.iter().map(|(z, rs)| entries_size(z, rs)).sum::<usize>()
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
    /// The replica of the zone's table; `table.zone` names the zone. Sized
    /// to the zone's child count together with `timeouts`.
    table: ZoneTable,
    /// Aggregate summary of `table`, keyed on its content generation and
    /// `scope_epoch`. In steady state rows are merely re-stamped each round,
    /// both keys stand still, and the summary is re-issued from the cache
    /// instead of re-running every aggregation program.
    agg: Option<AggCache>,
    /// Gossip peer candidates, keyed on the content generations of `table`
    /// and the parent level's (the two inputs of [`Agent::peers_at`]).
    peers: Option<(u64, u64, Vec<u32>)>,
    /// Row timeouts indexed by row label, fed whenever a merged row's stamp
    /// advances. Failure detection: a row is evicted when it has been
    /// silent for its own cadence's timeout, not on a fixed TTL cliff.
    /// Empty until the first foreign row arrives, then sized once to the
    /// zone's child count — the gc sweep and the merge loop consult a
    /// timeout per row, so this sits on the hot path where a hashed lookup
    /// showed up.
    timeouts: Timeouts,
}

/// What only mobile code, evictions and peers' cold restarts create: the
/// programs, tombstones and incarnations an agent on a healthy network
/// never holds. It sits behind one box (the agent's `rare`) that the first
/// mobile-code install (local, or a `sys$agg:` row in scope), the first
/// eviction or the first row of a peer's newer incarnation allocates, so
/// an agent without any pays one pointer for all five.
#[derive(Debug, Default)]
struct Rare {
    /// Mobile-code (`sys$agg:`) sources seen so far, compiled (`None`: does
    /// not parse). Configured programs arrive compiled in their
    /// [`crate::AggSpec`] and never enter this map.
    compiled: BTreeMap<String, Option<Arc<AggProgram>>>,
    /// Programs installed here ([`Agent::install_aggregation`]), by name.
    dynamic: BTreeMap<String, String>,
    /// Stamp watermark of rows evicted on suspicion: gossip re-offering the
    /// same (or an older) stamp is refused, so an evicted member cannot be
    /// resurrected by a replica that has not evicted it yet. A genuinely
    /// alive member re-enters with its next, newer stamp.
    tombstones: BTreeMap<(usize, u16), u64>,
    /// Highest incarnation observed per leaf-table label, indexed by label
    /// (a label past the end has seen none). Rows carrying an older
    /// incarnation are stale gossip from before that peer's cold restart
    /// and are fenced (dropped) regardless of stamp.
    incar_seen: Vec<u64>,
    /// Node ids observed under a *newer* incarnation since the last drain —
    /// the host resets its own per-peer failure detectors for these (a
    /// restarted peer must be immediately selectable again, not held hostage
    /// by suspicion accrued against its previous life).
    incarnation_bumps: Vec<u32>,
}

thread_local! {
    /// The digest handler's scratch [`Diff`] ([`ZoneTable::diff_into`]):
    /// one per thread rather than one per agent, since a handler runs to
    /// completion before the next starts. It keeps its lists' capacity
    /// between digests, so a handler in steady state allocates nothing.
    static SCRATCH_DIFF: Cell<Diff> = const { Cell::new(Diff::new()) };
}

/// What admission's fences ([`Agent::fence`]) make of a stamp offered for a
/// row.
enum Fence {
    /// A fence refused it.
    Closed,
    /// Every fence let it through.
    Open,
    /// Let through, and the first row of a newer incarnation `incar` of the
    /// leaf member `peer`.
    Reincarnated { incar: u64, peer: u32 },
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
    /// Bumped whenever the inputs of [`Agent::dynamic_in_scope`] may have
    /// changed: a program install, a merge or eviction touching a row that
    /// carries `sys$agg:` attributes, or a reset. While it stands still the
    /// cached [`RoundState`] is reused, skipping the full-table rescan that
    /// used to run every round.
    scope_epoch: u64,
    scope_cache: Option<(u64, RoundState)>,
    /// Bumped whenever `local` changes; keys `own_row_cache`.
    local_gen: u64,
    /// The fully decorated own row (locals + `id`/`reps`/`nmembers`),
    /// rebuilt only when `local` changed; heartbeats re-stamp it in place.
    own_row_cache: Option<(u64, Arc<Mib>)>,
    /// Mobile code, tombstones and incarnations seen, allocated on first
    /// use ([`Rare`]).
    rare: Option<Box<Rare>>,
    /// This node's own incarnation number: persisted by the host and bumped
    /// on every cold restart. Carried in the own leaf row as the `incar`
    /// attribute (only when non-zero, so pre-recovery deployments gossip
    /// byte-identical rows).
    incarnation: u64,
    /// When set, gossiped rows are structurally validated before merging
    /// (see [`Agent::row_is_valid`]); malformed rows are rejected and
    /// counted instead of silently merged. Off by default — the bare
    /// Astrolabe protocol trusts its peers, matching the paper; hosts that
    /// face an adversarial fault model (the NewsWire node) switch it on.
    validate_ingest: bool,
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
        let levels = chain
            .into_iter()
            .map(|zone| Level {
                table: ZoneTable::new(zone),
                agg: None,
                peers: None,
                timeouts: Timeouts::default(),
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
            scope_epoch: 0,
            scope_cache: None,
            local_gen: 0,
            own_row_cache: None,
            rare: None,
            incarnation: 0,
            validate_ingest: false,
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

    /// The static zone layout this agent was placed in.
    pub fn layout(&self) -> &ZoneLayout {
        &self.layout
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
        self.rare.as_mut().map(|r| std::mem::take(&mut r.incarnation_bumps)).unwrap_or_default()
    }

    /// The rarely used state, allocated here on first use.
    fn rare(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
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
        self.rare().dynamic.insert(name.to_owned(), program.to_owned());
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

    /// Failure detection sweep: evict rows silent for their timeout, plus
    /// (backstop) rows past the hard TTL whose cadence was never observed.
    /// Evicted stamps are tombstoned so stale replicas cannot resurrect
    /// them.
    fn gc(&mut self, now: SimTime) {
        let hard_cutoff = now.as_micros().saturating_sub(self.config.row_ttl.as_micros());
        let tuning = self.config.row_timeout();
        for level in 0..self.levels.len() {
            let keep = self.own_label(level);
            let lv = &self.levels[level];
            let suspects: Vec<(u16, u64, bool)> = lv
                .table
                .rows()
                .iter()
                .filter(|r| {
                    r.label != keep
                        && (lv.timeouts.is_suspect(usize::from(r.label), now, &tuning)
                            || r.stamp.issued_us < hard_cutoff)
                })
                .map(|r| (r.label, r.stamp.issued_us, r.mib.carries_mobile_code()))
                .collect();
            for (label, issued_us, carried_agg) in suspects {
                self.evict(level, label, carried_agg);
                self.rare().tombstones.insert((level, label), issued_us);
            }
        }
    }

    /// Drops a held row together with its timeout.
    fn evict(&mut self, level: usize, label: u16, carried_agg: bool) {
        let lv = &mut self.levels[level];
        lv.table.remove(label);
        lv.timeouts.clear(usize::from(label));
        if carried_agg {
            self.scope_epoch += 1;
        }
    }

    /// The stamp of the foreign row at `(level, label)` just advanced: its
    /// member is alive again as far as any tombstone goes, and gossip *is*
    /// the heartbeat its timeout feeds on.
    fn heartbeat(&mut self, level: usize, label: u16, now: SimTime) {
        if let Some(rare) = &mut self.rare {
            rare.tombstones.remove(&(level, label));
        }
        let lv = &mut self.levels[level];
        if lv.timeouts.is_empty() {
            let children = usize::from(self.layout.child_count(&lv.table.zone));
            lv.timeouts.grow_to(children);
            lv.table.size_for(children);
        }
        lv.timeouts.heartbeat(usize::from(label), now);
    }

    /// All dynamic programs visible in any replicated table (union of
    /// `sys$agg:` attributes), plus locally installed ones.
    fn dynamic_in_scope(&self) -> BTreeMap<String, String> {
        let mut progs = self.rare.as_ref().map(|r| r.dynamic.clone()).unwrap_or_default();
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
            if let Some(p) = compile_cached(&mut self.rare().compiled, src) {
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
            // No duty here: a summary cached while there was one would
            // only be held, never issued.
            self.levels[level].agg = None;
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

    /// The digests of `level` and every level above it: each lists every
    /// held row. The tables stand still while a tick fans out, so a digest
    /// an earlier message of the tick (`sent`) carries is shared, not
    /// rebuilt; the tick's outbox is the only place a digest is kept.
    fn digests_from(&self, level: usize, sent: &[(u32, GossipMsg)]) -> Vec<TableDigest> {
        let top = self.levels.len();
        (level..top)
            .map(|i| {
                // A digest message from level `l` lists levels `l..top`,
                // so level `i`'s entry is the `top - i`th from its end.
                let shared = sent.iter().find_map(|(_, m)| match m {
                    GossipMsg::Digest { digests } => {
                        digests.len().checked_sub(top - i).map(|at| &digests[at].rows)
                    }
                    _ => None,
                });
                let rows = match shared {
                    Some(rows) => {
                        obs::metric_add!(self.id, ctr::DIGEST_CACHE_HITS, 1);
                        Arc::clone(rows)
                    }
                    None => self.table(i).digest(),
                };
                TableDigest { zone: self.zone(i).clone(), rows }
            })
            .collect()
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
                out.push((peer, GossipMsg::Digest { digests: self.digests_from(level, &out) }));
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
                let digests = self.digests_from(bridge_level, &out);
                out.push((peer, GossipMsg::Digest { digests }));
            }
        }
        // Also keep pinging configured contacts occasionally (join seeds).
        if rand::Rng::gen_bool(rng, 0.25) {
            if let Some(&peer) = self.contacts.as_slice().choose(rng) {
                out.push((peer, GossipMsg::Digest { digests: self.digests_from(0, &out) }));
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
    fn merge_rows(&mut self, now: SimTime, batches: Vec<TableRows>) -> usize {
        let mut changed = 0;
        for batch in batches {
            let Some(level) = self.level_of(&batch.zone) else { continue };
            for (label, stamp, row) in batch.rows {
                changed += usize::from(self.admit(now, level, label, stamp, row));
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
    /// stamp is only ever taken for the values it was issued with. Records
    /// find their rows by [`ZoneTable::seek`] from one cursor, and a take
    /// writes the inline stamp where the row sits. Returns how many stamps
    /// were taken.
    fn restamp<'a>(
        &mut self,
        now: SimTime,
        level: usize,
        records: impl IntoIterator<Item = &'a RowDigest>,
    ) -> usize {
        let (mut taken, mut saved, mut cursor) = (0, 0, 0);
        for rec in records {
            let table = self.table(level);
            let Some(at) = table.seek(rec.label, &mut cursor) else { continue };
            let held = &table.rows()[at];
            if held.mib.content_hash() != rec.chash {
                continue;
            }
            // What the row would have cost whole, less the entry that
            // carried the stamp instead.
            let row_saved = (held.mib.wire_size() + 2).saturating_sub(RowDigest::WIRE_SIZE);
            if self.take(now, level, at, rec.stamp) {
                taken += 1;
                saved += row_saved;
            }
        }
        self.note_taken(taken, saved);
        taken
    }

    fn note_taken(&self, taken: usize, saved: usize) {
        if taken > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_ROWS, taken);
            obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_BYTES_SAVED, saved);
        }
        self.note_merged(taken);
    }

    fn note_merged(&self, changed: usize) {
        if changed > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_ROWS_MERGED, changed);
            obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_MERGE, changed);
        }
    }

    /// The one way a row that travelled enters a table from gossip: `row`'s
    /// values under `stamp`. Returns whether the table changed.
    fn admit(
        &mut self,
        now: SimTime,
        level: usize,
        label: u16,
        stamp: Stamp,
        row: Arc<Mib>,
    ) -> bool {
        let fence = self.fence(now, level, label, stamp, &row);
        let carries_agg = row.carries_mobile_code();
        self.enter(now, level, label, fence, carries_agg, |t| t.merge_stamped(label, stamp, row))
    }

    /// [`Agent::admit`] of the values the row at position `at` of `level`'s
    /// table already holds, under `stamp`: the same fences in the same
    /// order, then [`ZoneTable::take_stamp`].
    fn take(&mut self, now: SimTime, level: usize, at: usize, stamp: Stamp) -> bool {
        let held = &self.table(level).rows()[at];
        let (label, carries_agg) = (held.label, held.mib.carries_mobile_code());
        let fence = self.fence(now, level, label, stamp, &held.mib);
        self.enter(now, level, label, fence, carries_agg, |t| t.take_stamp(at, stamp))
    }

    /// Admission's fences, in order, for `row`'s values offered under
    /// `stamp` at `(level, label)`.
    ///
    /// Two classes of stale row are rejected outright: rows older than the
    /// hard TTL, and rows at or below a tombstoned stamp (evicted here on
    /// suspicion). Without this, a row evicted locally would be resurrected
    /// by the next gossip exchange with a replica that had not evicted it
    /// yet, and a failed member would never leave the membership. Then the
    /// incarnation fence (leaf rows only — that is where nodes publish
    /// `incar`): a row from before the peer's last cold restart is dropped
    /// outright, and the first row of a *newer* incarnation is reported so
    /// [`Agent::enter`] resets the peer's suspicion state.
    fn fence(&self, now: SimTime, level: usize, label: u16, stamp: Stamp, row: &Mib) -> Fence {
        if self.validate_ingest && !self.row_is_valid(now, level, label, stamp, row) {
            obs::metric_add!(self.id, ctr::CORRUPT_ROWS_REJECTED, 1);
            obs::trace_event!(self.id, Layer::Astro, kind::CORRUPT_ROW_REJECT, level, label);
            return Fence::Closed;
        }
        let cutoff = now.as_micros().saturating_sub(self.config.row_ttl.as_micros());
        if stamp.issued_us < cutoff {
            return Fence::Closed;
        }
        // A healthy system has no box, and this test runs once per row of
        // every batch.
        let rare = self.rare.as_deref();
        if let Some(&watermark) = rare.and_then(|r| r.tombstones.get(&(level, label))) {
            if stamp.issued_us <= watermark {
                return Fence::Closed;
            }
        }
        if level == 0 && label != self.own_label(0) {
            let incar = row.incarnation();
            let seen =
                rare.and_then(|r| r.incar_seen.get(usize::from(label))).copied().unwrap_or(0);
            if incar < seen {
                return Fence::Closed;
            }
            if incar > seen {
                let peer = row.get("id").and_then(AttrValue::as_i64).unwrap_or(-1).max(0) as u32;
                return Fence::Reincarnated { incar, peer };
            }
        }
        Fence::Open
    }

    /// Admits what `fence` let through: records a newer incarnation, merges
    /// through `merge`, and on a stamp advance feeds the row's timeout
    /// — gossip *is* the heartbeat. `carries_agg` is the offered values'
    /// mobile-code bit. Returns whether the table changed.
    fn enter(
        &mut self,
        now: SimTime,
        level: usize,
        label: u16,
        fence: Fence,
        carries_agg: bool,
        merge: impl FnOnce(&mut ZoneTable) -> MergeOutcome,
    ) -> bool {
        match fence {
            Fence::Closed => return false,
            Fence::Open => {}
            Fence::Reincarnated { incar, peer } => {
                let at = usize::from(label);
                let rare = self.rare();
                if rare.incar_seen.len() <= at {
                    rare.incar_seen.resize(at + 1, 0);
                }
                rare.incar_seen[at] = incar;
                rare.tombstones.remove(&(level, label));
                rare.incarnation_bumps.push(peer);
                self.levels[0].timeouts.clear(at);
                obs::metric_add!(self.id, ctr::INCARNATION_BUMPS, 1);
                obs::trace_event!(self.id, Layer::Astro, kind::INCARNATION_BUMP, peer, incar);
            }
        }
        let (advanced, old_carried_agg) = match merge(&mut self.levels[level].table) {
            MergeOutcome::Rejected => return false,
            MergeOutcome::Inserted => (true, false),
            MergeOutcome::Replaced { advanced_time, old_carried_agg } => {
                (advanced_time, old_carried_agg)
            }
        };
        // An admitted row can change the mobile-code scope only when the
        // incoming or displaced version carries `sys$agg:` attrs.
        if carries_agg || old_carried_agg {
            self.scope_epoch += 1;
        }
        if advanced && label != self.own_label(level) {
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
            GossipMsg::DigestReply { rows, want, refresh } => {
                self.merge_rows(now, rows);
                for (zone, records) in &refresh {
                    if let Some(level) = self.level_of(zone) {
                        self.restamp(now, level, records);
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
                self.merge_rows(now, rows);
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
    /// plus the want-list. In steady state (replicas in sync) this
    /// allocates nothing.
    fn on_digest(
        &mut self,
        now: SimTime,
        from: u32,
        digests: &[TableDigest],
    ) -> Vec<(u32, GossipMsg)> {
        let mut rows = Vec::new();
        let mut want = Vec::new();
        let mut refresh = Vec::new();
        // One scratch diff serves every digest; the reply steals a list
        // only when it is non-empty.
        let mut diff = SCRATCH_DIFF.take();
        for d in digests {
            let Some(level) = self.level_of(&d.zone) else { continue };
            self.table(level).diff_into(&d.rows, &mut diff);
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
        SCRATCH_DIFF.set(diff);
        let sent: usize = rows.iter().map(|t| t.rows.len()).sum();
        let wanted: usize = want.iter().map(|(_, ls)| ls.len()).sum();
        if sent + wanted > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_DIFF_ROWS, sent + wanted);
            obs::hist_record!(self.id, hist::GOSSIP_DIFF_ROWS, sent + wanted);
            obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_DIFF, sent, wanted);
        }
        if rows.is_empty() && want.is_empty() && refresh.is_empty() {
            Vec::new()
        } else {
            vec![(from, GossipMsg::DigestReply { rows, want, refresh })]
        }
    }

    /// The held rows of `labels` at `level`, as they travel.
    fn rows_of(&self, level: usize, labels: &[u16]) -> Vec<(u16, Stamp, Arc<Mib>)> {
        let table = self.table(level);
        let mut cursor = 0;
        labels
            .iter()
            .filter_map(|&l| table.seek(l, &mut cursor).map(|at| &table.rows()[at]))
            .map(|r| (r.label, r.stamp, Arc::clone(&r.mib)))
            .collect()
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
        // Table generations restart at zero, so the summaries and peer
        // lists keyed on the old counters go with the rows. Tables and
        // timeouts keep their allocations, sized to the zone.
        for lv in &mut self.levels {
            lv.table.clear();
            lv.timeouts.clear_all();
            (lv.agg, lv.peers) = (None, None);
        }
        self.version = 0;
        if let Some(rare) = &mut self.rare {
            rare.tombstones.clear();
            rare.incar_seen.clear();
            rare.incarnation_bumps.clear();
        }
        // The mobile-code scope shrank to the locally installed programs, so
        // the round state must be rebuilt too. (The own-row cache survives:
        // `local` did not change.)
        self.scope_epoch += 1;
        self.scope_cache = None;
    }

    /// The instant the row at `(level, label)` becomes suspect if it stays
    /// silent, once its timeout has observed it (diagnostics).
    pub fn suspicion(&self, level: usize, label: u16) -> Option<SimTime> {
        let tuning = self.config.row_timeout();
        self.levels.get(level)?.timeouts.deadline(usize::from(label), &tuning)
    }
}

/// Compiles mobile-code `src`, caching the result (including failures, so a
/// bad program is not re-parsed every round). A free function rather than a
/// method so callers can hold other `Agent` fields borrowed.
fn compile_cached(
    cache: &mut BTreeMap<String, Option<Arc<AggProgram>>>,
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
    pub(super) fn run_rounds(agents: &mut [Agent], rounds: usize, start: u64) -> u64 {
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

    pub(super) fn make_agents(n: u32, branching: u16) -> Vec<Agent> {
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
    fn a_digest_entry_for_held_values_is_adopted() {
        let mut agents = make_agents(2, 4);
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

        let digests = a.digests_from(0, &[]);
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

    #[test]
    fn a_replier_newer_on_stamp_only_sends_a_refresh_record() {
        let mut agents = make_agents(2, 4);
        let t = run_rounds(&mut agents, 4, 0);
        let (left, right) = agents.split_at_mut(1);
        let (a, b) = (&mut left[0], &mut right[0]);
        let mut rng = fork(9, 0);
        let label = b.own_label(0);
        let now = SimTime::from_micros(t + 1_000_000);

        // b heartbeats its own row; a's digest still names the old stamp.
        b.refresh_own_row(now);
        let digests = a.digests_from(0, &[]);
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
        // With a 20s TTL a silent member used to linger for 20 rounds; its
        // row's timeout, having learned the ~1s refresh cadence, expires
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
            "the timeout should evict the silent member before the hard TTL"
        );
        // A live row's deadline is queryable, and lies ahead.
        let a0 = &survivors[0];
        assert!(a0.suspicion(0, 2) > Some(SimTime::from_micros(t2)));
        assert!(a0.suspicion(0, 1).is_none(), "evicted: gone");
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
    fn an_agent_record_is_at_most_256_bytes() {
        // One per node of every deployment: what only mobile code,
        // evictions and restarts fill sits behind one pointer, and the
        // digest handler's scratch lists live once per thread.
        let size = std::mem::size_of::<Agent>();
        assert!(size <= 256, "Agent is {size} B");
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
            vec![TableRows { zone, rows: vec![(1, forged.stamp, forged)] }],
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
    }

    /// The stamp-take path before the cursor: each record looks its row up
    /// by label and offers a clone of the held values to [`Agent::admit`].
    /// Kept as the model [`Agent::restamp`] must agree with.
    impl Agent {
        fn restamp_model<'a>(
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
                let wire = held.wire_size();
                if self.admit(now, level, rec.label, rec.stamp, held) {
                    taken += 1;
                    saved += (wire + 2).saturating_sub(RowDigest::WIRE_SIZE);
                }
            }
            self.note_taken(taken, saved);
            taken
        }
    }

    mod one_pass {
        use std::cell::RefCell;
        use std::rc::Rc;

        use proptest::prelude::*;

        use super::*;
        use crate::table::diff_model;

        /// One gossip time unit: stamps, heartbeats and watermarks fall on
        /// multiples of it around `T`.
        const U: u64 = 400_000;
        const T: u64 = 100_000_000;
        /// Labels run past the branching factor (8): gossip may carry any.
        const LABELS: u16 = 12;

        /// `(label, value, incarnation, shape, mobile code)`: the values
        /// of a row; `shape` 1 drops `id`, 2 claims `nmembers` −1.
        type Values = (u16, u8, u8, u8, bool);

        fn values((label, x, incar, shape, agg): Values) -> Arc<Mib> {
            let mut b = MibBuilder::new().attr("x", i64::from(x));
            if shape != 1 {
                b.set("id", i64::from(label));
            }
            if shape == 2 {
                b.set("nmembers", -1i64);
            }
            if incar > 0 {
                b.set("incar", i64::from(incar));
            }
            if agg {
                b.set("sys$agg:n", "SELECT COUNT() AS n");
            }
            Arc::new(b.build(Stamp::default()))
        }

        /// A stamp `k` units from `T` (`k` below −40 falls past the TTL).
        fn stamp(k: i64, version: u64, origin: u32) -> Stamp {
            Stamp { issued_us: T.saturating_add_signed(k * U as i64), version, origin }
        }

        fn values_strategy() -> impl Strategy<Value = Values> {
            (0..LABELS, 0u8..3, prop_oneof![Just(0u8), 1u8..4], 0u8..6, 0u8..5)
                .prop_map(|(l, x, i, shape, agg)| (l, x, i, shape.saturating_sub(3), agg == 0))
        }

        fn stamp_strategy() -> impl Strategy<Value = (i64, u64, u32)> {
            (prop_oneof![-3i64..4, -3i64..4, Just(-60i64), Just(6)], 0u64..3, 0u32..2)
        }

        /// A record a peer sends: its label, stamp, and a hash that is the
        /// held row's (0), that of other values (1) or junk (2).
        type Record = (u16, (i64, u64, u32), u8, Values);

        fn record_strategy() -> impl Strategy<Value = Record> {
            (
                0..LABELS,
                stamp_strategy(),
                prop_oneof![Just(0u8), Just(0), 1u8..3],
                values_strategy(),
            )
        }

        /// The records in label order (0), label order without repeats (1),
        /// as drawn (2) or in reverse label order (3).
        fn arrange(table: &ZoneTable, records: &[Record], order: u8) -> Vec<RowDigest> {
            let mut out: Vec<RowDigest> = records
                .iter()
                .map(|&(label, (k, v, o), hash, other)| {
                    let chash = match (hash, table.get(label)) {
                        (0, Some(held)) => held.content_hash(),
                        (2, _) => u64::from(label) << 32 | 0xBAD,
                        _ => values((label, other.1, other.2, other.3, other.4)).content_hash(),
                    };
                    RowDigest { label, stamp: stamp(k, v, o), chash }
                })
                .collect();
            match order {
                0 => out.sort_by_key(|d| d.label),
                1 => {
                    out.sort_by_key(|d| d.label);
                    out.dedup_by_key(|d| d.label);
                }
                2 => {}
                _ => out.sort_by_key(|d| std::cmp::Reverse(d.label)),
            }
            out
        }

        /// Everything the two sides start from.
        #[derive(Debug, Clone)]
        struct World {
            validate: bool,
            rows: Vec<(usize, Values, (i64, u64, u32))>,
            beats: Vec<(usize, u16, i64)>,
            tombstones: Vec<(usize, u16, i64)>,
            incarnations: Vec<(u16, u8)>,
        }

        fn world() -> impl Strategy<Value = World> {
            (
                any::<bool>(),
                proptest::collection::vec((0usize..2, values_strategy(), stamp_strategy()), 0..24),
                proptest::collection::vec((0usize..2, 0..LABELS, -8i64..0), 0..40),
                proptest::collection::vec((0usize..2, 0..LABELS, -4i64..3), 0..3),
                proptest::collection::vec((0..LABELS, 1u8..3), 0..3),
            )
                .prop_map(|(validate, rows, beats, tombstones, incarnations)| World {
                    validate,
                    rows,
                    beats,
                    tombstones,
                    incarnations,
                })
        }

        /// Agent 0 of 64 (branching 8: a leaf table and the root's) in
        /// `w`'s state, with a fresh telemetry hub.
        fn build(w: &World) -> (Agent, Rc<RefCell<obs::TelemetryHub>>) {
            let layout = ZoneLayout::new(64, 8);
            let config = Config { branching: 8, ..small_config() };
            let mut a = Agent::new(0, &layout, config, vec![]);
            a.set_ingest_validation(w.validate);
            for &(level, vals, (k, v, o)) in &w.rows {
                a.levels[level].table.merge_stamped(vals.0, stamp(k, v, o), values(vals));
            }
            for &(level, label, k) in &w.beats {
                a.heartbeat(level, label, SimTime::from_micros(stamp(k, 0, 0).issued_us));
            }
            for &(level, label, k) in &w.tombstones {
                a.rare().tombstones.insert((level, label), stamp(k, 0, 0).issued_us);
            }
            for &(label, incar) in &w.incarnations {
                let at = usize::from(label);
                let seen = &mut a.rare().incar_seen;
                seen.resize(seen.len().max(at + 1), 0);
                seen[at] = u64::from(incar);
            }
            let hub = Rc::new(RefCell::new(obs::TelemetryHub::new(0)));
            hub.borrow_mut().ensure_nodes(1);
            (a, hub)
        }

        /// What the comparison reads off one side.
        fn state(a: &mut Agent, hub: &RefCell<obs::TelemetryHub>) -> String {
            let later = SimTime::from_micros(T + 30 * U);
            let mut out = String::new();
            for (level, lv) in a.levels.iter().enumerate() {
                let t = &lv.table;
                out += &format!(
                    "L{level} gen {} content {}\n",
                    t.generation(),
                    t.content_generation()
                );
                for r in t.rows() {
                    out += &format!("  {} {} {:x}\n", r.label, r.stamp, r.mib.content_hash());
                }
                let tuning = a.config.row_timeout();
                for slot in 0..16 {
                    let deadline = lv.timeouts.deadline(slot, &tuning);
                    let suspect = lv.timeouts.is_suspect(slot, later, &tuning);
                    out += &format!("  timeout {slot} {deadline:?} {suspect}\n");
                }
            }
            let bumps = a.take_incarnation_bumps();
            let rare = a.rare.as_ref().map(|r| (&r.incar_seen, &r.tombstones));
            out += &format!("bumps {bumps:?} seen and tombstones {rare:?}\n");
            out += &format!("scope {}\n", a.scope_epoch);
            let hub = hub.borrow();
            for id in [
                ctr::GOSSIP_REFRESH_ROWS,
                ctr::GOSSIP_REFRESH_BYTES_SAVED,
                ctr::GOSSIP_ROWS_MERGED,
                ctr::CORRUPT_ROWS_REJECTED,
                ctr::INCARNATION_BUMPS,
            ] {
                out += &format!("ctr {id:?} {}\n", hub.node_counter(0, id));
            }
            out
        }

        /// One digest and one batch of refresh records at `level`, each
        /// arranged in `orders`' order, through both sides.
        type Exchange = (Vec<Record>, Vec<Record>, (u8, u8), usize);

        fn exchange_strategy() -> impl Strategy<Value = Exchange> {
            (
                proptest::collection::vec(record_strategy(), 0..20),
                proptest::collection::vec(record_strategy(), 0..12),
                (0u8..4, 0u8..4),
                0usize..2,
            )
        }

        fn exchange(
            sides: [&mut (Agent, Rc<RefCell<obs::TelemetryHub>>); 2],
            (peer, refresh, orders, level): &Exchange,
            now: SimTime,
            scratch: &mut Diff,
        ) {
            let [(new, new_hub), (model, model_hub)] = sides;
            let level = *level;
            let digest = arrange(new.table(level), peer, orders.0);
            let records = arrange(new.table(level), refresh, orders.1);
            new.table(level).diff_into(&digest, scratch);
            let expect = diff_model(model.table(level), &digest);
            assert_eq!(scratch, &expect);
            let adopted = |diff: &Diff| -> Vec<RowDigest> {
                diff.adopt.iter().map(|&at| digest[at as usize]).collect()
            };
            let taken = {
                let _hub = obs::collector::install(Rc::clone(new_hub));
                new.restamp(now, level, &adopted(scratch)) + new.restamp(now, level, &records)
            };
            let model_taken = {
                let _hub = obs::collector::install(Rc::clone(model_hub));
                let adopted = model.restamp_model(now, level, &adopted(&expect));
                adopted + model.restamp_model(now, level, &records)
            };
            assert_eq!(taken, model_taken);
        }

        proptest! {
            /// The one-pass digest walk and the cursor's stamp takes do
            /// what the binary search, nested scan and per-record lookup
            /// did: same classification, same rows and stamps, same table
            /// generations, detectors, incarnation bumps and counts, over
            /// exchanges in a row whose digests and refresh records come in
            /// any order, repeat labels or name labels past the zone.
            #[test]
            fn one_pass_digest_handling_matches_the_model(
                w in world(),
                exchanges in proptest::collection::vec(exchange_strategy(), 1..5),
            ) {
                let (mut new, mut model) = (build(&w), build(&w));
                // One scratch diff for every exchange, as a thread keeps.
                let mut scratch = Diff::default();
                for (k, x) in exchanges.iter().enumerate() {
                    let now = SimTime::from_micros(T + k as u64 * U);
                    exchange([&mut new, &mut model], x, now, &mut scratch);
                    prop_assert_eq!(state(&mut new.0, &new.1), state(&mut model.0, &model.1));
                }
            }
        }
    }
}
