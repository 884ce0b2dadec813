//! The fixed-slot metrics registry.
//!
//! Metric identity is a small integer slot into per-node storage, assigned
//! once by a [`Schema`]. The hot path for every counter bump is therefore a
//! bounds-checked array index — no hashing, no string lookups. The stack's
//! built-in metrics are pre-registered by [`Schema::stack`] at the positions
//! named by the constants in [`ctr`], [`gauge`], [`hist`] and [`series`];
//! callers may register additional slots at runtime (registration is
//! idempotent per name: re-registering returns the existing slot).

use std::fmt;

/// Slot id of a counter (also used for monotone global/fault tallies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtrId(pub u16);

/// Slot id of a gauge (last-set or high-water value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GaugeId(pub u16);

/// Slot id of a fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistId(pub u16);

/// Slot id of a raw-sample series (exact quantiles, unbounded growth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(pub u16);

macro_rules! slots {
    ($idty:ident, $($(#[$m:meta])* $name:ident = $idx:expr, $s:expr;)*) => {
        $( $(#[$m])* pub const $name: super::$idty = super::$idty($idx); )*
        /// Slot names in registration order (index == slot id).
        pub const NAMES: &[&str] = &[$($s),*];
    };
}

/// Built-in counter slots, grouped by the layer that owns them.
pub mod ctr {
    slots! { CtrId,
        // -- simnet: per-node traffic accounting (always maintained; these
        //    back the `TrafficCounters` view) --
        /// Messages sent by this node.
        MSGS_SENT = 0, "msgs_sent";
        /// Payload bytes sent by this node.
        BYTES_SENT = 1, "bytes_sent";
        /// Messages delivered to this node.
        MSGS_RECV = 2, "msgs_recv";
        /// Payload bytes delivered to this node.
        BYTES_RECV = 3, "bytes_recv";
        /// Messages addressed to this node that were lost (drop or downtime).
        MSGS_LOST = 4, "msgs_lost";
        /// Timers that fired on this node.
        TIMERS_FIRED = 5, "timers_fired";
        // -- simnet: global fault tallies (kept on the hub's global set;
        //    these back the `FaultCounters` view) --
        /// Messages dropped by a network partition.
        DROPS_PARTITION = 6, "drops_partition";
        /// Messages dropped by a directed link cut.
        DROPS_LINK_CUT = 7, "drops_link_cut";
        /// Messages dropped by random loss.
        DROPS_LOSS = 8, "drops_loss";
        /// Messages dropped by gray degradation at the sender.
        DROPS_GRAY_SEND = 9, "drops_gray_send";
        /// Messages dropped by gray degradation at the receiver.
        DROPS_GRAY_RECV = 10, "drops_gray_recv";
        /// Extra copies created by network duplication.
        MSGS_DUPLICATED = 11, "msgs_duplicated";
        /// Messages that took a reorder-jitter detour.
        MSGS_JITTERED = 12, "msgs_jittered";
        /// Node crashes executed.
        CRASHES = 13, "crashes";
        /// Node recoveries executed.
        RECOVERIES = 14, "recoveries";
        /// Partitions installed.
        PARTITIONS_STARTED = 15, "partitions_started";
        /// Partitions healed.
        PARTITIONS_HEALED = 16, "partitions_healed";
        // -- astrolabe --
        /// Gossip rounds (periodic ticks) executed.
        GOSSIP_ROUNDS = 17, "gossip_rounds";
        /// Digest messages sent.
        GOSSIP_DIGESTS_SENT = 18, "gossip_digests_sent";
        /// Rows shipped in digest replies / diff pushes.
        GOSSIP_DIFF_ROWS = 19, "gossip_diff_rows";
        /// Rows accepted (merged as newer) into the local zone tables.
        GOSSIP_ROWS_MERGED = 20, "gossip_rows_merged";
        /// Aggregation-function recomputations over a zone level.
        AGG_RECOMPUTES = 21, "agg_recomputes";
        /// Aggregations satisfied by the content-generation cache.
        AGG_CACHE_HITS = 22, "agg_cache_hits";
        /// Digest constructions satisfied by the per-level digest cache.
        DIGEST_CACHE_HITS = 23, "digest_cache_hits";
        /// Peer-list constructions satisfied by the peer cache.
        PEERS_CACHE_HITS = 24, "peers_cache_hits";
        // -- amcast --
        /// Multicast forwards sent down the zone tree.
        MCAST_FORWARDS = 25, "mcast_forwards";
        /// Duplicate multicast messages suppressed.
        MCAST_DUPES_DROPPED = 26, "mcast_dupes_dropped";
        /// Multicast routing dead-ends.
        MCAST_ROUTE_FAILURES = 27, "mcast_route_failures";
        /// Messages delivered to the local application by the mcast layer.
        MCAST_LOCAL_DELIVERIES = 28, "mcast_local_deliveries";
        // -- newswire --
        /// Items published by this node.
        NW_PUBLISHED = 29, "nw_published";
        /// Items delivered to the application.
        NW_DELIVERED = 30, "nw_delivered";
        /// Deliveries that arrived via the repair path.
        NW_DELIVERED_REPAIR = 31, "nw_delivered_repair";
        /// Duplicate arrivals suppressed before the application.
        NW_DUPLICATES = 32, "nw_duplicates";
        /// Bloom-filter false-positive deliveries caught by the exact check.
        NW_BLOOM_FP = 33, "nw_bloom_fp";
        /// Arrivals filtered out by the exact predicate.
        NW_PREDICATE_FILTERED = 34, "nw_predicate_filtered";
        /// Arrivals rejected by authentication.
        NW_AUTH_REJECTS = 35, "nw_auth_rejects";
        /// Publishes denied by capability checks.
        NW_PUBLISH_DENIED = 36, "nw_publish_denied";
        /// Tree forwards sent.
        NW_FORWARDS = 37, "nw_forwards";
        /// Routing dead-ends at the newswire layer.
        NW_ROUTE_FAILURES = 38, "nw_route_failures";
        /// Hand-off acknowledgements received.
        NW_ACKS_RECEIVED = 39, "nw_acks_received";
        /// Hand-off retries (same representative).
        NW_ACK_RETRIES = 40, "nw_ack_retries";
        /// Hand-off failovers to the next representative.
        NW_ACK_FAILOVERS = 41, "nw_ack_failovers";
        /// Hand-offs abandoned after exhausting representatives.
        NW_HANDOFFS_ABANDONED = 42, "nw_handoffs_abandoned";
        /// Failovers short-circuited by φ-accrual suspicion.
        NW_SUSPECT_FAILOVERS = 43, "nw_suspect_failovers";
        /// Named pulls served.
        NW_REPAIRS_SERVED = 44, "nw_repairs_served";
        /// Items shipped in named-pull replies.
        NW_REPAIR_ITEMS_SENT = 45, "nw_repair_items_sent";
        /// Retired with the margin probe (it counted the probe's retargets);
        /// the slot stays so every later id keeps its position.
        RETIRED_46 = 46, "retired_46";
        /// Anti-entropy reconcile requests issued.
        NW_RECONCILE_REQUESTS = 47, "nw_reconcile_requests";
        /// Items received in reconcile replies.
        NW_RECONCILE_ITEMS_RECV = 48, "nw_reconcile_items_recv";
        /// Reconcile requests served for peers.
        NW_RECONCILES_SERVED = 49, "nw_reconciles_served";
        /// Items shipped in reconcile replies.
        NW_RECONCILE_ITEMS_SENT = 50, "nw_reconcile_items_sent";
        /// Bytes shipped in reconcile replies.
        NW_RECONCILE_BYTES_SENT = 51, "nw_reconcile_bytes_sent";
        /// Reconcile requests retargeted after a reply deadline.
        NW_RECONCILE_RETARGETS = 52, "nw_reconcile_retargets";
        // -- oracle verdicts (global set; recorded post-run) --
        /// Oracle runs recorded.
        ORACLE_RUNS = 53, "oracle_runs";
        /// Duplicate-delivery violations found by the oracle.
        ORACLE_DUP_VIOLATIONS = 54, "oracle_dup_violations";
        /// Unwanted-delivery violations found by the oracle.
        ORACLE_UNWANTED_VIOLATIONS = 55, "oracle_unwanted_violations";
        /// Missed-delivery violations found by the oracle.
        ORACLE_MISSED_VIOLATIONS = 56, "oracle_missed_violations";
        /// Survivor article logs left unconverged.
        ORACLE_UNCONVERGED_LOGS = 57, "oracle_unconverged_logs";
        // -- crash recovery --
        /// Cold restarts with stable storage intact (`ColdDurable`).
        COLD_RESTARTS_DURABLE = 58, "cold_restarts_durable";
        /// Cold restarts with everything wiped (`ColdAmnesia`).
        COLD_RESTARTS_AMNESIA = 59, "cold_restarts_amnesia";
        /// Unsynced disk writes lost at crash time.
        DISK_WRITES_LOST = 60, "disk_writes_lost";
        /// Newer peer incarnations observed in gossip (fence + φ reset).
        INCARNATION_BUMPS = 61, "incarnation_bumps";
        /// Recovery protocols run to completion (article logs hole-free).
        NW_RECOVERIES = 62, "nw_recoveries";
        /// Items re-acquired from peers while a node was recovering.
        NW_BACKFILL_ITEMS = 63, "nw_backfill_items";
        // -- adversarial faults + self-stabilization --
        /// State-corruption strikes executed by the fault engine.
        STATE_CORRUPTIONS = 64, "state_corruptions";
        /// Gossip rows rejected by defensive ingest validation.
        CORRUPT_ROWS_REJECTED = 65, "corrupt_rows_rejected";
        /// Divergences repaired by the periodic local-state self-audit.
        SELF_AUDIT_REPAIRS = 66, "self_audit_repairs";
        /// Outbound messages tampered with or dropped by a liar intercept.
        LIAR_MESSAGES_INTERCEPTED = 67, "liar_messages_intercepted";
        /// Self-stabilization verdicts recorded by the oracle.
        ORACLE_STABILIZATION_RUNS = 68, "oracle_stabilization_runs";
        // -- Byzantine zones: collusion, forgery, signed-authority defenses --
        /// Items rejected by signature verification on an admission path.
        NW_FORGED_REJECTS = 69, "forged_rejects";
        /// Peers quarantined out of peer selection by misbehavior score.
        NW_QUARANTINES = 70, "quarantines";
        /// Epoch claims refused for lacking (or failing) publisher-signed
        /// authority.
        NW_SIGNED_EPOCH_REFUSALS = 71, "signed_epoch_refusals";
        /// Collusion-script strikes executed against colluding members.
        COLLUSION_STRIKES = 72, "collusion_strikes";
        /// Outbound messages tampered or dropped by a colluding member.
        COLLUSION_INTERCEPTS = 73, "collusion_intercepts";
        /// Forged items fabricated into node state by `ForgeItems` strikes.
        FORGED_ITEMS_INJECTED = 74, "forged_items_injected";
        /// Forged-delivery violations found by the oracle.
        ORACLE_FORGED_VIOLATIONS = 75, "oracle_forged_violations";
        // -- delta wire protocol (all zero unless a run enables it) --
        /// Compressed wire bytes actually shipped (delta accounting model);
        /// compare against `bytes_sent`, which always prices full bodies.
        BYTES_WIRE = 76, "bytes_wire";
        /// Item payloads sent as chunk deltas instead of full bodies.
        DELTA_ITEMS_SENT = 77, "delta_items_sent";
        /// Bytes saved by item chunk deltas vs full bodies.
        DELTA_ITEM_BYTES_SAVED = 78, "delta_item_bytes_saved";
        /// Item sends that fell back to full bodies (no usable baseline).
        DELTA_FALLBACK_FULL = 79, "delta_fallback_full";
        /// Delta envelopes deferred at delivery for lack of the baseline
        /// (recovered later through anti-entropy).
        DELTA_DEFERRED = 80, "delta_deferred";
        /// Gossip rows whose newer stamp a replica took for values it
        /// already held — from a digest entry or a refresh record — instead
        /// of receiving the row (both gossip wires).
        GOSSIP_REFRESH_ROWS = 81, "gossip_refresh_rows";
        /// Bytes those rows would have cost whole, less the 30-byte digest
        /// entry or refresh record that carried the stamp instead.
        GOSSIP_REFRESH_BYTES_SAVED = 82, "gossip_refresh_bytes_saved";
        /// Partial (delta) digests sent in place of full digests.
        GOSSIP_DELTA_DIGESTS = 83, "gossip_delta_digests";
        /// Full-digest fallbacks (periodic safety net or generation gap).
        GOSSIP_FULL_FALLBACKS = 84, "gossip_full_fallbacks";
        // -- trust-root rotation: key compromise, revocation, Sybil
        //    admission --
        /// Stolen-key strikes executed against compromised members.
        KEY_COMPROMISE_STRIKES = 85, "key_compromise_strikes";
        /// Fabricated identities injected by `SybilFlood` strikes.
        SYBIL_JOINS_ATTEMPTED = 86, "sybil_joins_attempted";
        /// Unendorsed member rows refused at gossip admission.
        SYBIL_JOINS_REFUSED = 87, "sybil_joins_refused";
        /// Rotation/revocation records verified and adopted.
        CERT_REVOCATIONS_SEEN = 88, "cert_revocations_seen";
        /// Admissions refused because the signing key-epoch was revoked.
        NW_REVOKED_KEY_REJECTS = 89, "revoked_key_rejects";
        /// Cached items retroactively purged after their key was revoked.
        NW_RETRO_PURGED_ITEMS = 90, "retro_purged_items";
        /// Identities first held in the bounded probation set.
        NW_PROBATION_HOLDS = 91, "probation_holds";
        // -- newswire: where recovery (repair / reconcile reply) items go --
        /// Recovery items that arrived already cached at the receiver.
        NW_RECOVERY_HELD = 92, "nw_recovery_held";
        /// Recovery items not cached but outside the receiver's subscription.
        NW_RECOVERY_UNWANTED = 93, "nw_recovery_unwanted";
        // -- newswire: the per-link delivery chain's named pulls --
        /// Named-id `RepairRequest`s sent for gaps a `Deliver`'s `prev`
        /// revealed and the reorder window did not close.
        NW_GAP_PULLS = 94, "nw_gap_pulls";
        /// Items shipped in answer to named pulls (also counted in
        /// `repair_items_sent`).
        NW_GAP_PULL_ITEMS = 95, "nw_gap_pull_items";
        // -- astrolabe, appended --
        /// Wire bytes of every gossip message an agent sends: digests,
        /// replies and pushed rows (a host's own framing not included).
        GOSSIP_BYTES_SENT = 96, "gossip_bytes_sent";
        // -- newswire: what a reconcile reply vouches for --
        /// Reconcile reply entries a responder sent as a stub instead of the
        /// item: the requester's summary rejects it, or the item is gone.
        NW_RECONCILE_WITHHELD = 97, "nw_reconcile_withheld";
        /// Requested seqs a reconcile reply could not vouch for, left as
        /// holes for the follow-up request.
        NW_RECONCILE_UNVOUCHED = 98, "nw_reconcile_unvouched";
        /// Named pulls a representative held none of the ids for (a pull
        /// that finds nothing is not answered).
        NW_GAP_PULL_UNANSWERED = 99, "nw_gap_pull_unanswered";
    }
}

/// Built-in gauge slots.
pub mod gauge {
    slots! { GaugeId,
        /// MIB rows currently held by this node's Astrolabe agent.
        ASTRO_ROWS_HELD = 0, "astro_rows_held";
        /// High-water mark of the newswire per-node work queue.
        NW_PEAK_QUEUE = 1, "nw_peak_queue";
        /// High-water mark of the mcast per-node work queue.
        MCAST_PEAK_QUEUE = 2, "mcast_peak_queue";
    }
}

/// Built-in histogram slots.
pub mod hist {
    /// Bucket edges (bytes) for gossip digest sizes.
    pub const DIGEST_BYTES_EDGES: &[u64] =
        &[64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536];
    /// Bucket edges (row counts) for gossip diff sizes.
    pub const DIFF_ROWS_EDGES: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];
    slots! { HistId,
        /// Wire size of each gossip digest message sent, in bytes.
        GOSSIP_DIGEST_BYTES = 0, "gossip_digest_bytes";
        /// Rows carried by each digest reply / diff push.
        GOSSIP_DIFF_ROWS = 1, "gossip_diff_rows";
    }
}

/// Built-in series slots (raw samples, exact quantiles).
pub mod series {
    slots! { SeriesId,
        /// Publish→deliver latency of each application delivery, in µs.
        DELIVERY_LATENCY_US = 0, "delivery_latency_us";
        /// Cold-restart → logs-hole-free recovery duration, in µs.
        RECOVERY_DURATION_US = 1, "recovery_duration_us";
    }
}

/// Definition of one histogram family: its name and fixed bucket edges.
#[derive(Debug, Clone, Copy)]
pub struct HistDef {
    /// Stable metric name (used in exports).
    pub name: &'static str,
    /// Ascending bucket edges. A value `v` lands in bucket `i` such that
    /// `edges[i-1] <= v < edges[i]`; bucket `0` is the underflow bucket
    /// (`v < edges[0]`) and bucket `edges.len()` collects overflow.
    pub edges: &'static [u64],
}

/// The slot table: names (and, for histograms, bucket edges) in slot order.
///
/// Registration is idempotent per name — asking for a slot that already
/// exists returns the existing id, so independent subsystems can safely
/// re-declare shared metrics.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    counters: Vec<&'static str>,
    gauges: Vec<&'static str>,
    hists: Vec<HistDef>,
    series: Vec<&'static str>,
}

impl Schema {
    /// An empty schema (for tests and bespoke registries).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// The full built-in schema for the NewsWire stack, with every constant
    /// in [`ctr`], [`gauge`], [`hist`] and [`series`] at its declared slot.
    pub fn stack() -> Self {
        let mut s = Schema::empty();
        for name in ctr::NAMES {
            s.counter(name);
        }
        for name in gauge::NAMES {
            s.gauge(name);
        }
        s.histogram(hist::NAMES[0], hist::DIGEST_BYTES_EDGES);
        s.histogram(hist::NAMES[1], hist::DIFF_ROWS_EDGES);
        for name in series::NAMES {
            s.series(name);
        }
        s
    }

    /// Registers (or finds) a counter slot by name.
    pub fn counter(&mut self, name: &'static str) -> CtrId {
        if let Some(i) = self.counters.iter().position(|n| *n == name) {
            return CtrId(i as u16);
        }
        self.counters.push(name);
        CtrId((self.counters.len() - 1) as u16)
    }

    /// Registers (or finds) a gauge slot by name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|n| *n == name) {
            return GaugeId(i as u16);
        }
        self.gauges.push(name);
        GaugeId((self.gauges.len() - 1) as u16)
    }

    /// Registers (or finds) a histogram slot by name. Re-registering an
    /// existing name returns the original slot (the edges argument is
    /// ignored in that case — bucket layout is fixed at first registration).
    pub fn histogram(&mut self, name: &'static str, edges: &'static [u64]) -> HistId {
        if let Some(i) = self.hists.iter().position(|h| h.name == name) {
            return HistId(i as u16);
        }
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "histogram edges must ascend");
        self.hists.push(HistDef { name, edges });
        HistId((self.hists.len() - 1) as u16)
    }

    /// Registers (or finds) a series slot by name.
    pub fn series(&mut self, name: &'static str) -> SeriesId {
        if let Some(i) = self.series.iter().position(|n| *n == name) {
            return SeriesId(i as u16);
        }
        self.series.push(name);
        SeriesId((self.series.len() - 1) as u16)
    }

    /// Name of a counter slot.
    pub fn counter_name(&self, id: CtrId) -> &'static str {
        self.counters[id.0 as usize]
    }
    /// Name of a gauge slot.
    pub fn gauge_name(&self, id: GaugeId) -> &'static str {
        self.gauges[id.0 as usize]
    }
    /// Definition of a histogram slot.
    pub fn hist_def(&self, id: HistId) -> HistDef {
        self.hists[id.0 as usize]
    }
    /// Name of a series slot.
    pub fn series_name(&self, id: SeriesId) -> &'static str {
        self.series[id.0 as usize]
    }
    /// Number of registered counter slots.
    pub fn counter_slots(&self) -> usize {
        self.counters.len()
    }
    /// Number of registered gauge slots.
    pub fn gauge_slots(&self) -> usize {
        self.gauges.len()
    }
    /// Number of registered histogram slots.
    pub fn hist_slots(&self) -> usize {
        self.hists.len()
    }
    /// Number of registered series slots.
    pub fn series_slots(&self) -> usize {
        self.series.len()
    }
}

/// A node's counters. The low slots — the engine's traffic counters and
/// the gossip counters every node bumps on every event — sit in a dense
/// array indexed by slot, as long as the highest one touched. The slots
/// appended above them are each touched by few nodes and rarely, so they
/// sit in a short list of `(slot, value)` kept in slot order: a node that
/// bumps one appended counter pays for that counter, not for a dense
/// array reaching up to it.
#[derive(Debug, Clone, Default)]
struct Counters {
    dense: Vec<u64>,
    sparse: Vec<(u16, u64)>,
}

/// Slots below this are dense in [`Counters`].
const DENSE_SLOTS: usize = 64;

impl Counters {
    #[inline]
    fn get(&self, i: usize) -> u64 {
        if i < DENSE_SLOTS {
            return self.dense.get(i).copied().unwrap_or(0);
        }
        match self.sparse.binary_search_by_key(&i, |&(s, _)| usize::from(s)) {
            Ok(at) => self.sparse[at].1,
            Err(_) => 0,
        }
    }

    #[inline]
    fn slot(&mut self, i: usize) -> &mut u64 {
        if i < DENSE_SLOTS {
            if i >= self.dense.len() {
                // Exact growth on first touch: there is one set per node.
                self.dense.reserve_exact(i + 1 - self.dense.len());
                self.dense.resize(i + 1, 0);
            }
            return &mut self.dense[i];
        }
        let at = match self.sparse.binary_search_by_key(&i, |&(s, _)| usize::from(s)) {
            Ok(at) => at,
            Err(at) => {
                self.sparse.reserve_exact(1);
                self.sparse.insert(at, (i as u16, 0));
                at
            }
        };
        &mut self.sparse[at].1
    }

    /// Every touched slot with its value, in slot order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut u64)> {
        let dense = self.dense.iter_mut().enumerate();
        dense.chain(self.sparse.iter_mut().map(|(s, v)| (usize::from(*s), v)))
    }

    fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let dense = self.dense.iter().copied().enumerate();
        dense.chain(self.sparse.iter().map(|&(s, v)| (usize::from(s), v)))
    }
}

/// One node's metric storage, indexed by slot id: counters dense below
/// slot 64 and as a short sorted list above it, the rest as dense arrays.
///
/// Sets start empty and grow on first touch of a slot, so an idle node costs
/// five empty `Vec`s.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    counters: Counters,
    gauges: Vec<u64>,
    /// Bucket arrays, one per histogram slot; sized `edges.len() + 1` on
    /// first record.
    hists: Vec<Vec<u64>>,
    series: Vec<Vec<u64>>,
}

impl MetricSet {
    /// A fresh, all-zero set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    #[inline]
    fn slot(v: &mut Vec<u64>, i: usize) -> &mut u64 {
        if i >= v.len() {
            // Exact growth: a set is as long as its highest touched slot,
            // not the next power of two (there is one set per node).
            v.reserve_exact(i + 1 - v.len());
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    /// Adds `v` to a counter slot.
    #[inline]
    pub fn ctr_add(&mut self, id: CtrId, v: u64) {
        *self.counters.slot(id.0 as usize) += v;
    }

    /// Reads a counter slot (0 if never touched).
    #[inline]
    pub fn ctr(&self, id: CtrId) -> u64 {
        self.counters.get(id.0 as usize)
    }

    /// Sets a gauge slot.
    #[inline]
    pub fn gauge_set(&mut self, id: GaugeId, v: u64) {
        *Self::slot(&mut self.gauges, id.0 as usize) = v;
    }

    /// Raises a gauge slot to `v` if larger (high-water mark).
    #[inline]
    pub fn gauge_max(&mut self, id: GaugeId, v: u64) {
        let g = Self::slot(&mut self.gauges, id.0 as usize);
        *g = (*g).max(v);
    }

    /// Reads a gauge slot (0 if never set).
    #[inline]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Records `v` into a histogram slot, given its definition.
    ///
    /// Returns the bucket index the value landed in. Bucket `i` holds values
    /// in `[edges[i-1], edges[i])`; bucket `0` is underflow, the last bucket
    /// overflow.
    pub fn hist_record(&mut self, id: HistId, def: HistDef, v: u64) -> usize {
        let i = id.0 as usize;
        if i >= self.hists.len() {
            self.hists.resize_with(i + 1, Vec::new);
        }
        let buckets = &mut self.hists[i];
        if buckets.is_empty() {
            buckets.resize(def.edges.len() + 1, 0);
        }
        let b = def.edges.partition_point(|&e| e <= v);
        buckets[b] += 1;
        b
    }

    /// The bucket array of a histogram slot (empty if never recorded).
    pub fn hist_buckets(&self, id: HistId) -> &[u64] {
        self.hists.get(id.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Appends a raw sample to a series slot.
    #[inline]
    pub fn series_push(&mut self, id: SeriesId, v: u64) {
        let i = id.0 as usize;
        if i >= self.series.len() {
            self.series.resize_with(i + 1, Vec::new);
        }
        self.series[i].push(v);
    }

    /// The raw samples of a series slot, in record order.
    pub fn series(&self, id: SeriesId) -> &[u64] {
        self.series.get(id.0 as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when every slot is untouched or zero.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|(_, c)| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(|h| h.iter().all(|&b| b == 0))
            && self.series.iter().all(Vec::is_empty)
    }

    /// Resets every slot to zero, keeping allocations where cheap.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|(_, c)| *c = 0);
        self.gauges.iter_mut().for_each(|g| *g = 0);
        self.hists.iter_mut().for_each(|h| h.iter_mut().for_each(|b| *b = 0));
        self.series.iter_mut().for_each(Vec::clear);
    }

    /// Moves another set's activity into this one and clears it there:
    /// counters and buckets add, series concatenate. A gauge is a level with
    /// one writer, so `other`'s gauges replace this set's when `owner` (the
    /// writer updates `other`) and are ignored otherwise; either way `other`
    /// keeps them, so the next absorb still sees the writer's current level.
    pub fn absorb(&mut self, other: &mut MetricSet, owner: bool) {
        for (i, c) in other.counters.iter_mut() {
            if *c != 0 {
                *self.counters.slot(i) += std::mem::take(c);
            }
        }
        if owner {
            for (i, &g) in other.gauges.iter().enumerate() {
                *Self::slot(&mut self.gauges, i) = g;
            }
        }
        for (i, h) in other.hists.iter_mut().enumerate() {
            if h.is_empty() {
                continue;
            }
            if i >= self.hists.len() {
                self.hists.resize_with(i + 1, Vec::new);
            }
            if self.hists[i].is_empty() {
                self.hists[i].resize(h.len(), 0);
            }
            for (b, v) in h.iter_mut().enumerate() {
                self.hists[i][b] += std::mem::take(v);
            }
        }
        for (i, s) in other.series.iter_mut().enumerate() {
            if s.is_empty() {
                continue;
            }
            if i >= self.series.len() {
                self.series.resize_with(i + 1, Vec::new);
            }
            self.series[i].append(s);
        }
    }

    /// Iterates `(slot, value)` over non-zero counters in slot order.
    pub fn counters_nonzero(&self) -> impl Iterator<Item = (CtrId, u64)> + '_ {
        self.counters.iter().filter(|&(_, v)| v != 0).map(|(i, v)| (CtrId(i as u16), v))
    }

    /// Iterates `(slot, value)` over non-zero gauges in slot order.
    pub fn gauges_nonzero(&self) -> impl Iterator<Item = (GaugeId, u64)> + '_ {
        self.gauges
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (GaugeId(i as u16), v))
    }

    /// Iterates `(slot, buckets)` over non-empty histograms in slot order.
    pub fn hists_nonzero(&self) -> impl Iterator<Item = (HistId, &[u64])> + '_ {
        self.hists
            .iter()
            .enumerate()
            .filter(|(_, h)| h.iter().any(|&b| b != 0))
            .map(|(i, h)| (HistId(i as u16), h.as_slice()))
    }

    /// Iterates `(slot, samples)` over non-empty series in slot order.
    pub fn series_nonzero(&self) -> impl Iterator<Item = (SeriesId, &[u64])> + '_ {
        self.series
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (SeriesId(i as u16), s.as_slice()))
    }
}

impl fmt::Display for MetricSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.counters.iter().filter(|&(_, c)| c != 0).count();
        write!(f, "MetricSet({n} non-zero counters)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_schema_matches_declared_slots() {
        let s = Schema::stack();
        assert_eq!(s.counter_name(ctr::MSGS_SENT), "msgs_sent");
        assert_eq!(s.counter_name(ctr::ORACLE_UNCONVERGED_LOGS), "oracle_unconverged_logs");
        assert_eq!(s.counter_name(ctr::NW_BACKFILL_ITEMS), "nw_backfill_items");
        assert_eq!(s.counter_name(ctr::CORRUPT_ROWS_REJECTED), "corrupt_rows_rejected");
        assert_eq!(s.counter_name(ctr::LIAR_MESSAGES_INTERCEPTED), "liar_messages_intercepted");
        assert_eq!(s.counter_name(ctr::NW_FORGED_REJECTS), "forged_rejects");
        assert_eq!(s.counter_name(ctr::NW_QUARANTINES), "quarantines");
        assert_eq!(s.counter_name(ctr::NW_SIGNED_EPOCH_REFUSALS), "signed_epoch_refusals");
        assert_eq!(s.counter_name(ctr::COLLUSION_STRIKES), "collusion_strikes");
        assert_eq!(s.counter_name(ctr::COLLUSION_INTERCEPTS), "collusion_intercepts");
        assert_eq!(s.counter_name(ctr::FORGED_ITEMS_INJECTED), "forged_items_injected");
        assert_eq!(s.counter_name(ctr::KEY_COMPROMISE_STRIKES), "key_compromise_strikes");
        assert_eq!(s.counter_name(ctr::SYBIL_JOINS_ATTEMPTED), "sybil_joins_attempted");
        assert_eq!(s.counter_name(ctr::SYBIL_JOINS_REFUSED), "sybil_joins_refused");
        assert_eq!(s.counter_name(ctr::CERT_REVOCATIONS_SEEN), "cert_revocations_seen");
        assert_eq!(s.counter_name(ctr::NW_REVOKED_KEY_REJECTS), "revoked_key_rejects");
        assert_eq!(s.counter_name(ctr::NW_RETRO_PURGED_ITEMS), "retro_purged_items");
        assert_eq!(s.counter_name(ctr::NW_PROBATION_HOLDS), "probation_holds");
        assert_eq!(s.counter_name(ctr::NW_RECOVERY_HELD), "nw_recovery_held");
        assert_eq!(s.counter_name(ctr::NW_RECOVERY_UNWANTED), "nw_recovery_unwanted");
        assert_eq!(s.counter_name(ctr::NW_GAP_PULLS), "nw_gap_pulls");
        assert_eq!(s.counter_name(ctr::NW_GAP_PULL_ITEMS), "nw_gap_pull_items");
        assert_eq!(s.counter_name(ctr::NW_RECONCILE_WITHHELD), "nw_reconcile_withheld");
        assert_eq!(s.counter_name(ctr::NW_RECONCILE_UNVOUCHED), "nw_reconcile_unvouched");
        assert_eq!(s.counter_name(ctr::NW_GAP_PULL_UNANSWERED), "nw_gap_pull_unanswered");
        assert_eq!(s.gauge_name(gauge::ASTRO_ROWS_HELD), "astro_rows_held");
        assert_eq!(s.hist_def(hist::GOSSIP_DIGEST_BYTES).name, "gossip_digest_bytes");
        assert_eq!(s.series_name(series::DELIVERY_LATENCY_US), "delivery_latency_us");
        assert_eq!(s.series_name(series::RECOVERY_DURATION_US), "recovery_duration_us");
        assert_eq!(s.counter_slots(), ctr::NAMES.len());
    }

    #[test]
    fn slot_registration_reuses_existing_names() {
        let mut s = Schema::empty();
        let a = s.counter("alpha");
        let b = s.counter("beta");
        let a2 = s.counter("alpha");
        assert_eq!(a, a2, "re-registering a name must return the same slot");
        assert_ne!(a, b);
        assert_eq!(s.counter_slots(), 2);
        let h = s.histogram("lat", &[1, 10]);
        let h2 = s.histogram("lat", &[5, 50]);
        assert_eq!(h, h2);
        assert_eq!(s.hist_def(h).edges, &[1, 10], "edges fixed at first registration");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut s = Schema::empty();
        let h = s.histogram("h", &[10, 100]);
        let def = s.hist_def(h);
        let mut m = MetricSet::new();
        // Underflow: strictly below the first edge.
        assert_eq!(m.hist_record(h, def, 0), 0);
        assert_eq!(m.hist_record(h, def, 9), 0);
        // An edge value belongs to the bucket it opens: [10, 100).
        assert_eq!(m.hist_record(h, def, 10), 1);
        assert_eq!(m.hist_record(h, def, 99), 1);
        // [100, ∞) is overflow.
        assert_eq!(m.hist_record(h, def, 100), 2);
        assert_eq!(m.hist_record(h, def, u64::MAX), 2);
        assert_eq!(m.hist_buckets(h), &[2, 2, 2]);
    }

    #[test]
    fn counters_gauges_series_roundtrip() {
        let mut m = MetricSet::new();
        m.ctr_add(ctr::MSGS_SENT, 2);
        m.ctr_add(ctr::MSGS_SENT, 3);
        assert_eq!(m.ctr(ctr::MSGS_SENT), 5);
        assert_eq!(m.ctr(ctr::MSGS_RECV), 0, "untouched slot reads zero");
        m.gauge_set(gauge::ASTRO_ROWS_HELD, 7);
        m.gauge_max(gauge::ASTRO_ROWS_HELD, 3);
        assert_eq!(m.gauge(gauge::ASTRO_ROWS_HELD), 7);
        m.gauge_max(gauge::ASTRO_ROWS_HELD, 11);
        assert_eq!(m.gauge(gauge::ASTRO_ROWS_HELD), 11);
        m.series_push(series::DELIVERY_LATENCY_US, 42);
        m.series_push(series::DELIVERY_LATENCY_US, 17);
        assert_eq!(m.series(series::DELIVERY_LATENCY_US), &[42, 17]);
        assert!(!m.is_zero());
    }

    #[test]
    fn appended_counters_cost_only_themselves_and_keep_slot_order() {
        let mut m = MetricSet::new();
        for (slot, v) in [(96, 1), (0, 2), (130, 3), (81, 4), (0, 5)] {
            m.ctr_add(CtrId(slot), v);
        }
        assert_eq!((m.counters.dense.len(), m.counters.sparse.len()), (1, 3));
        let expect = [(CtrId(0), 7), (CtrId(81), 4), (CtrId(96), 1), (CtrId(130), 3)];
        assert_eq!(m.counters_nonzero().collect::<Vec<_>>(), expect);
        assert_eq!((m.ctr(CtrId(129)), m.ctr(CtrId(500))), (0, 0));
        let mut other = MetricSet::new();
        other.ctr_add(CtrId(64), 1);
        other.ctr_add(CtrId(130), 1);
        m.absorb(&mut other, false);
        assert_eq!((m.ctr(CtrId(64)), m.ctr(CtrId(130))), (1, 4));
        assert!(other.is_zero());
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = Schema::stack();
        let mut m = MetricSet::new();
        m.ctr_add(ctr::NW_DELIVERED, 9);
        m.gauge_set(gauge::NW_PEAK_QUEUE, 4);
        m.hist_record(hist::GOSSIP_DIGEST_BYTES, s.hist_def(hist::GOSSIP_DIGEST_BYTES), 300);
        m.series_push(series::DELIVERY_LATENCY_US, 1);
        assert!(!m.is_zero());
        m.reset();
        assert!(m.is_zero());
        assert_eq!(m.ctr(ctr::NW_DELIVERED), 0);
        assert!(m.series(series::DELIVERY_LATENCY_US).is_empty());
    }

    #[test]
    fn absorb_moves_activity_and_copies_owned_gauges() {
        let mut a = MetricSet::new();
        let mut b = MetricSet::new();
        a.ctr_add(ctr::MSGS_SENT, 1);
        b.ctr_add(ctr::MSGS_SENT, 2);
        b.gauge_set(gauge::ASTRO_ROWS_HELD, 5);
        a.gauge_set(gauge::ASTRO_ROWS_HELD, 9);
        b.series_push(series::DELIVERY_LATENCY_US, 3);
        a.absorb(&mut b, false);
        assert_eq!(a.ctr(ctr::MSGS_SENT), 3);
        assert_eq!(a.gauge(gauge::ASTRO_ROWS_HELD), 9, "a non-owner's gauges are ignored");
        assert_eq!(a.series(series::DELIVERY_LATENCY_US), &[3]);
        assert_eq!(b.ctr(ctr::MSGS_SENT), 0);
        assert!(b.series(series::DELIVERY_LATENCY_US).is_empty());
        // A level that fell since the last absorb falls here too.
        a.absorb(&mut b, true);
        assert_eq!(a.gauge(gauge::ASTRO_ROWS_HELD), 5);
        assert_eq!(b.gauge(gauge::ASTRO_ROWS_HELD), 5, "the writer keeps its level");
        assert_eq!(a.ctr(ctr::MSGS_SENT), 3);
    }
}
