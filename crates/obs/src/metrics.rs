//! The fixed-slot metrics registry.
//!
//! Metric identity is a small integer slot into per-node storage, fixed at
//! compile time by the constants in [`ctr`], [`gauge`], [`hist`] and
//! [`series`]. The hot path for every counter bump is therefore a
//! bounds-checked array index — no hashing, no string lookups. Each module's
//! static `NAMES` table gives a slot's export name (index == slot id), and
//! [`hist::EDGES`] a histogram's bucket edges.

use std::fmt;

use crate::export::{NodeMetrics, SeriesStats};

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
        /// Slot names (index == slot id).
        pub const NAMES: &[&str] = &[$($s),*];
        // Every constant's slot is its name's position in `NAMES`.
        const _: () = {
            let mut _i = 0;
            $( assert!($idx == _i, "slots must be declared in slot order"); _i += 1; )*
        };
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
        /// Table digests a gossip fan-out shared with an earlier message of
        /// the same tick instead of building.
        DIGEST_CACHE_HITS = 23, "digest_cache_hits";
        /// Peer-list constructions satisfied by the peer cache.
        PEERS_CACHE_HITS = 24, "peers_cache_hits";
        // -- amcast: retired with its second forwarding node, whose forwards,
        //    suppressed duplicates and route failures NewsWire's own slots
        //    count; the slots stay so every later id keeps its position --
        /// Retired (was `mcast_forwards`; see `nw_forwards`).
        RETIRED_25 = 25, "retired_25";
        /// Retired (was `mcast_dupes_dropped`; see `nw_duplicates`).
        RETIRED_26 = 26, "retired_26";
        /// Retired (was `mcast_route_failures`; see `nw_route_failures`).
        RETIRED_27 = 27, "retired_27";
        /// Retired (was `mcast_local_deliveries`; see `nw_delivered`).
        RETIRED_28 = 28, "retired_28";
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
        /// Hand-off failovers that skipped their remaining retries because
        /// the representative was suspect: backed off by the
        /// acknowledgement table, or quarantined.
        NW_SUSPECT_FAILOVERS = 43, "nw_suspect_failovers";
        /// Retired with the named-pull server (it counted the pulls it
        /// answered); the slot stays so every later id keeps its position.
        RETIRED_44 = 44, "retired_44";
        /// Items shipped in named-pull replies. No node answers a named pull
        /// any more, so this reads 0; the slot stays for the benchmark.
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
        /// Reconcile follow-ups sent after a reply deadline: the silent peer
        /// vouched for nothing, and the pass asked the next one.
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
        /// of receiving the row.
        GOSSIP_REFRESH_ROWS = 81, "gossip_refresh_rows";
        /// Bytes those rows would have cost whole, less the 30-byte digest
        /// entry or refresh record that carried the stamp instead.
        GOSSIP_REFRESH_BYTES_SAVED = 82, "gossip_refresh_bytes_saved";
        /// Retired with the per-peer gossip lanes (it counted partial
        /// digests); the slot stays so every later id keeps its position.
        RETIRED_83 = 83, "retired_83";
        /// Retired with the per-peer gossip lanes (it counted their
        /// full-digest fallbacks).
        RETIRED_84 = 84, "retired_84";
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
        /// Retired with the per-link delivery chain (it counted the chain's
        /// named pulls); the slot stays so every later id keeps its position.
        RETIRED_94 = 94, "retired_94";
        /// Retired with the delivery chain (items served to its named pulls).
        RETIRED_95 = 95, "retired_95";
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
        /// Retired with the delivery chain (named pulls that found nothing).
        RETIRED_99 = 99, "retired_99";
        // -- newswire: the acknowledged final hop --
        /// `ForwardAck`s from members that settled a pending `Deliver`.
        NW_DELIVER_ACKS = 100, "nw_deliver_acks";
        /// `Deliver`s re-sent after a round-trip bound passed unacknowledged
        /// (also counted in `nw_forwards`; hand-off retries are
        /// `nw_ack_retries`).
        NW_DELIVER_RESENDS = 101, "nw_deliver_resends";
        // -- newswire: announces on a clean final hop --
        /// Id-only `Deliver`s a leaf representative sent in place of the
        /// payload its co-representative sends.
        NW_ANNOUNCES = 102, "nw_announces";
        /// Announces whose wait ran out, so the payload went (also counted
        /// in `nw_deliver_resends`).
        NW_ANNOUNCE_PAYLOADS = 103, "nw_announce_payloads";
        // -- simnet: `bytes_sent` split by cause at the send site (a
        //    message's `Payload::byte_cause`); a message with no cause, like
        //    every message of a protocol that names none, is in no slot --
        /// Hand-off payloads (`Forward` carrying the article).
        BYTES_HANDOFF = 104, "bytes_handoff";
        /// Hand-off announces (`Forward` naming the article by id).
        BYTES_HANDOFF_ANNOUNCE = 105, "bytes_handoff_announce";
        /// Final-hop payloads (`Deliver` carrying the article).
        BYTES_DELIVER = 106, "bytes_deliver";
        /// Final-hop announces (`Deliver` naming the article by id).
        BYTES_DELIVER_ANNOUNCE = 107, "bytes_deliver_announce";
        /// Acknowledgements (`ForwardAck`).
        BYTES_ACK = 108, "bytes_ack";
        /// Gossip as it leaves the node: the exchange, its riders and the
        /// message header (`gossip_bytes_sent` is the exchange alone, as the
        /// agent builds it).
        BYTES_GOSSIP = 109, "bytes_gossip";
        /// Reconcile requests and replies.
        BYTES_RECONCILE = 110, "bytes_reconcile";
        /// Everything else: rotations, publish requests, retired repair
        /// messages.
        BYTES_OTHER = 111, "bytes_other";
        // -- newswire: one payload into a leaf zone on a clean record --
        /// Id-only hand-offs to a leaf zone's co-representative, sent in
        /// place of the payload its holder forwards.
        NW_HANDOFF_ANNOUNCES = 112, "nw_handoff_announces";
        /// Hand-off announces whose wait ran out, so the payload went (also
        /// counted in `nw_forwards`).
        NW_HANDOFF_ANNOUNCE_PAYLOADS = 113, "nw_handoff_announce_payloads";
    }
}

/// Built-in gauge slots.
pub mod gauge {
    slots! { GaugeId,
        /// MIB rows currently held by this node's Astrolabe agent.
        ASTRO_ROWS_HELD = 0, "astro_rows_held";
        /// High-water mark of the newswire per-node work queue.
        NW_PEAK_QUEUE = 1, "nw_peak_queue";
        /// Retired with amcast's second forwarding node (was
        /// `mcast_peak_queue`; see `nw_peak_queue`); the slot stays.
        RETIRED_2 = 2, "retired_2";
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
    /// Ascending bucket edges of each histogram (index == slot id). A value
    /// `v` lands in bucket `i` such that `edges[i-1] <= v < edges[i]`;
    /// bucket `0` is the underflow bucket (`v < edges[0]`) and bucket
    /// `edges.len()` collects overflow.
    pub const EDGES: &[&[u64]] = &[DIGEST_BYTES_EDGES, DIFF_ROWS_EDGES];
}

/// Built-in series slots (raw samples, exact quantiles).
pub mod series {
    slots! { SeriesId,
        /// Retired (was `delivery_latency_us`, one sample per delivery
        /// beside each node's delivery log, which is the one record).
        RETIRED_0 = 0, "retired_0";
        /// Cold-restart → logs-hole-free recovery duration, in µs.
        RECOVERY_DURATION_US = 1, "recovery_duration_us";
    }
}

/// One metric set indexed by slot id, each kind a dense array grown to the
/// highest slot touched: the simulation-global tallies (faults, oracle
/// verdicts). Per-node metrics are stored as columns across nodes instead
/// (the hub's `NodeColumns`).
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    counters: Vec<u64>,
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
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    /// Adds `v` to a counter slot.
    #[inline]
    pub fn ctr_add(&mut self, id: CtrId, v: u64) {
        *Self::slot(&mut self.counters, id.0 as usize) += v;
    }

    /// Reads a counter slot (0 if never touched).
    #[inline]
    pub fn ctr(&self, id: CtrId) -> u64 {
        self.counters.get(id.0 as usize).copied().unwrap_or(0)
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

    /// Records `v` into a histogram slot under its [`hist::EDGES`].
    ///
    /// Returns the bucket index the value landed in. Bucket `i` holds values
    /// in `[edges[i-1], edges[i])`; bucket `0` is underflow, the last bucket
    /// overflow.
    pub fn hist_record(&mut self, id: HistId, v: u64) -> usize {
        let i = id.0 as usize;
        let edges = hist::EDGES[i];
        if i >= self.hists.len() {
            self.hists.resize_with(i + 1, Vec::new);
        }
        let buckets = &mut self.hists[i];
        if buckets.is_empty() {
            buckets.resize(edges.len() + 1, 0);
        }
        let b = edges.partition_point(|&e| e <= v);
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
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(|h| h.iter().all(|&b| b == 0))
            && self.series.iter().all(Vec::is_empty)
    }

    /// Resets every slot to zero, keeping allocations where cheap.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.gauges.iter_mut().for_each(|g| *g = 0);
        self.hists.iter_mut().for_each(|h| h.iter_mut().for_each(|b| *b = 0));
        self.series.iter_mut().for_each(Vec::clear);
    }

    /// Iterates `(slot, value)` over non-zero counters in slot order.
    pub fn counters_nonzero(&self) -> impl Iterator<Item = (CtrId, u64)> + '_ {
        self.counters
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (CtrId(i as u16), v))
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

/// Every node's counters, gauges, histograms and series, stored as
/// columns: for each slot some node touched, one array indexed by node id
/// (a histogram's holds each node's buckets back to back). A simulation
/// touches a few dozen slots, most of them on every node, so a slot costs
/// 8 bytes a node (a histogram bucket 4) in one allocation, where a
/// [`MetricSet`] per node cost five vectors and up to six allocations each,
/// and a dense counter array as long as the highest slot that node touched.
///
/// A column is allocated at its slot's first touch, as long as the node
/// count, and grows with it; untouched slots cost an empty `Vec` each, once
/// per simulation.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeColumns {
    nodes: usize,
    counters: Vec<Vec<u64>>,
    gauges: Vec<Vec<u64>>,
    /// Bucket counts, saturating at `u32::MAX`: a node records a handful of
    /// values a gossip round.
    hists: Vec<Vec<u32>>,
    series: Vec<Vec<Vec<u64>>>,
}

/// Buckets of histogram slot `slot`.
fn hist_width(slot: usize) -> usize {
    hist::EDGES[slot].len() + 1
}

impl NodeColumns {
    /// Number of nodes every column covers.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// Grows every column to cover node ids `0..n`.
    pub(crate) fn grow(&mut self, n: usize) {
        if n <= self.nodes {
            return;
        }
        self.nodes = n;
        for col in self.counters.iter_mut().chain(&mut self.gauges).filter(|c| !c.is_empty()) {
            col.resize(n, 0);
        }
        for (slot, col) in self.hists.iter_mut().enumerate().filter(|(_, c)| !c.is_empty()) {
            col.resize(n * hist_width(slot), 0);
        }
        for col in self.series.iter_mut().filter(|c| !c.is_empty()) {
            col.resize_with(n, Vec::new);
        }
    }

    /// Slot `slot`'s column of `len` values, allocated on first touch.
    #[inline]
    fn column<T: Copy + Default>(cols: &mut Vec<Vec<T>>, slot: usize, len: usize) -> &mut [T] {
        if slot >= cols.len() {
            cols.resize_with(slot + 1, Vec::new);
        }
        let col = &mut cols[slot];
        if col.is_empty() {
            *col = vec![T::default(); len];
        }
        col
    }

    /// `node`'s value in a counter or gauge column, 0 if never touched.
    #[inline]
    fn read(cols: &[Vec<u64>], slot: usize, node: usize) -> u64 {
        cols.get(slot).and_then(|c| c.get(node)).copied().unwrap_or(0)
    }

    /// Adds `v` to `node`'s counter slot; a node past the table is ignored.
    /// A slot's column, once allocated, covers every node, so the common
    /// case is two bounds checks; the first touch of a slot goes the slow
    /// way.
    #[inline]
    pub(crate) fn ctr_add(&mut self, node: usize, id: CtrId, v: u64) {
        match self.counters.get_mut(id.0 as usize).and_then(|col| col.get_mut(node)) {
            Some(c) => *c += v,
            None => self.ctr_add_first(node, id, v),
        }
    }

    #[cold]
    fn ctr_add_first(&mut self, node: usize, id: CtrId, v: u64) {
        if node < self.nodes {
            Self::column(&mut self.counters, id.0 as usize, self.nodes)[node] += v;
        }
    }

    /// `node`'s counter slot (0 if never touched or out of range).
    #[inline]
    pub(crate) fn ctr(&self, node: usize, id: CtrId) -> u64 {
        Self::read(&self.counters, id.0 as usize, node)
    }

    /// A counter slot summed over every node.
    pub(crate) fn ctr_total(&self, id: CtrId) -> u64 {
        self.counters.get(id.0 as usize).map_or(0, |c| c.iter().sum())
    }

    /// Sets `node`'s gauge slot; a node past the table is ignored.
    #[inline]
    pub(crate) fn gauge_set(&mut self, node: usize, id: GaugeId, v: u64) {
        if node < self.nodes {
            Self::column(&mut self.gauges, id.0 as usize, self.nodes)[node] = v;
        }
    }

    /// Raises `node`'s gauge slot to `v` if larger.
    #[inline]
    pub(crate) fn gauge_max(&mut self, node: usize, id: GaugeId, v: u64) {
        if node < self.nodes {
            let g = &mut Self::column(&mut self.gauges, id.0 as usize, self.nodes)[node];
            *g = (*g).max(v);
        }
    }

    /// `node`'s gauge slot (0 if never set or out of range).
    #[inline]
    pub(crate) fn gauge(&self, node: usize, id: GaugeId) -> u64 {
        Self::read(&self.gauges, id.0 as usize, node)
    }

    /// A gauge slot summed over every node.
    pub(crate) fn gauge_total(&self, id: GaugeId) -> u64 {
        self.gauges.get(id.0 as usize).map_or(0, |c| c.iter().sum())
    }

    /// Records `v` into `node`'s histogram slot under its [`hist::EDGES`],
    /// as [`MetricSet::hist_record`] does.
    pub(crate) fn hist_record(&mut self, node: usize, id: HistId, v: u64) {
        if node < self.nodes {
            let (slot, width) = (id.0 as usize, hist_width(id.0 as usize));
            let b = hist::EDGES[slot].partition_point(|&e| e <= v);
            let count =
                &mut Self::column(&mut self.hists, slot, self.nodes * width)[node * width + b];
            *count = count.saturating_add(1);
        }
    }

    /// `node`'s buckets of a histogram slot (empty if no node recorded one).
    fn hist_buckets(&self, node: usize, slot: usize) -> &[u32] {
        let width = hist_width(slot);
        self.hists.get(slot).and_then(|c| c.get(node * width..(node + 1) * width)).unwrap_or(&[])
    }

    /// Appends a raw sample to `node`'s series slot.
    pub(crate) fn series_push(&mut self, node: usize, id: SeriesId, v: u64) {
        if node < self.nodes {
            let slot = id.0 as usize;
            if slot >= self.series.len() {
                self.series.resize_with(slot + 1, Vec::new);
            }
            let col = &mut self.series[slot];
            if col.is_empty() {
                col.resize_with(self.nodes, Vec::new);
            }
            col[node].push(v);
        }
    }

    /// `node`'s samples of a series slot, in record order.
    pub(crate) fn series(&self, node: usize, id: SeriesId) -> &[u64] {
        self.series.get(id.0 as usize).and_then(|c| c.get(node)).map_or(&[], Vec::as_slice)
    }

    /// True when every slot of `node` is untouched or zero.
    pub(crate) fn is_zero(&self, node: usize) -> bool {
        let zero = |cols: &[Vec<u64>]| cols.iter().all(|c| c.get(node).is_none_or(|&v| v == 0));
        zero(&self.counters)
            && zero(&self.gauges)
            && (0..self.hists.len()).all(|s| self.hist_buckets(node, s).iter().all(|&b| b == 0))
            && self.series.iter().all(|c| c.get(node).is_none_or(Vec::is_empty))
    }

    /// `node`'s non-zero slots under their static names, as
    /// [`NodeMetrics::from_set`] lists a [`MetricSet`]'s.
    pub(crate) fn node_metrics(&self, node: usize) -> NodeMetrics {
        let nonzero = |cols: &[Vec<u64>], names: &'static [&'static str]| {
            (0..cols.len())
                .map(|s| (names[s], Self::read(cols, s, node)))
                .filter(|&(_, v)| v != 0)
                .collect()
        };
        NodeMetrics {
            node: node as u32,
            counters: nonzero(&self.counters, ctr::NAMES),
            gauges: nonzero(&self.gauges, gauge::NAMES),
            hists: (0..self.hists.len())
                .map(|s| (hist::NAMES[s], self.hist_buckets(node, s)))
                .filter(|(_, h)| h.iter().any(|&b| b != 0))
                .map(|(name, h)| (name, h.iter().map(|&b| u64::from(b)).collect()))
                .collect(),
            series: (0..self.series.len())
                .map(|s| (series::NAMES[s], self.series(node, SeriesId(s as u16))))
                .filter(|(_, samples)| !samples.is_empty())
                .map(|(name, samples)| (name, SeriesStats::of(samples)))
                .collect(),
        }
    }

    /// Zeroes every slot of every node, keeping the columns.
    pub(crate) fn reset(&mut self) {
        for col in self.counters.iter_mut().chain(&mut self.gauges) {
            col.fill(0);
        }
        self.hists.iter_mut().for_each(|col| col.fill(0));
        self.series.iter_mut().flatten().for_each(Vec::clear);
    }

    /// Heap bytes of the columns, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn cols<T>(cols: &Vec<Vec<T>>) -> usize {
            cols.capacity() * size_of::<Vec<T>>()
                + cols.iter().map(|c| c.capacity() * size_of::<T>()).sum::<usize>()
        }
        cols(&self.counters)
            + cols(&self.gauges)
            + cols(&self.hists)
            + self.series.capacity() * size_of::<Vec<Vec<u64>>>()
            + self.series.iter().map(cols).sum::<usize>()
    }
}

impl fmt::Display for MetricSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.counters.iter().filter(|&&c| c != 0).count();
        write!(f, "MetricSet({n} non-zero counters)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_names_are_unique_and_histogram_edges_ascend() {
        assert_eq!(hist::EDGES.len(), hist::NAMES.len(), "one edge table per histogram");
        for names in [ctr::NAMES, gauge::NAMES, hist::NAMES, series::NAMES] {
            let mut seen = std::collections::BTreeSet::new();
            for name in names {
                assert!(seen.insert(name), "slot name {name:?} declared twice");
            }
        }
        for (name, edges) in hist::NAMES.iter().zip(hist::EDGES) {
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "{name}: edges must ascend");
        }
    }

    #[test]
    fn slot_constants_keep_their_export_names() {
        let c = |id: CtrId| ctr::NAMES[id.0 as usize];
        assert_eq!(c(ctr::MSGS_SENT), "msgs_sent");
        assert_eq!(c(ctr::ORACLE_UNCONVERGED_LOGS), "oracle_unconverged_logs");
        assert_eq!(c(ctr::NW_BACKFILL_ITEMS), "nw_backfill_items");
        assert_eq!(c(ctr::CORRUPT_ROWS_REJECTED), "corrupt_rows_rejected");
        assert_eq!(c(ctr::LIAR_MESSAGES_INTERCEPTED), "liar_messages_intercepted");
        assert_eq!(c(ctr::NW_FORGED_REJECTS), "forged_rejects");
        assert_eq!(c(ctr::NW_QUARANTINES), "quarantines");
        assert_eq!(c(ctr::NW_SIGNED_EPOCH_REFUSALS), "signed_epoch_refusals");
        assert_eq!(c(ctr::COLLUSION_STRIKES), "collusion_strikes");
        assert_eq!(c(ctr::COLLUSION_INTERCEPTS), "collusion_intercepts");
        assert_eq!(c(ctr::FORGED_ITEMS_INJECTED), "forged_items_injected");
        assert_eq!(c(ctr::KEY_COMPROMISE_STRIKES), "key_compromise_strikes");
        assert_eq!(c(ctr::SYBIL_JOINS_ATTEMPTED), "sybil_joins_attempted");
        assert_eq!(c(ctr::SYBIL_JOINS_REFUSED), "sybil_joins_refused");
        assert_eq!(c(ctr::CERT_REVOCATIONS_SEEN), "cert_revocations_seen");
        assert_eq!(c(ctr::NW_REVOKED_KEY_REJECTS), "revoked_key_rejects");
        assert_eq!(c(ctr::NW_RETRO_PURGED_ITEMS), "retro_purged_items");
        assert_eq!(c(ctr::NW_PROBATION_HOLDS), "probation_holds");
        assert_eq!(c(ctr::NW_RECOVERY_HELD), "nw_recovery_held");
        assert_eq!(c(ctr::NW_RECOVERY_UNWANTED), "nw_recovery_unwanted");
        assert_eq!(c(ctr::RETIRED_25), "retired_25");
        assert_eq!(c(ctr::RETIRED_26), "retired_26");
        assert_eq!(c(ctr::RETIRED_27), "retired_27");
        assert_eq!(c(ctr::RETIRED_28), "retired_28");
        assert_eq!(c(ctr::NW_PUBLISHED), "nw_published");
        assert_eq!(c(ctr::RETIRED_44), "retired_44");
        assert_eq!(c(ctr::RETIRED_83), "retired_83");
        assert_eq!(c(ctr::RETIRED_84), "retired_84");
        assert_eq!(c(ctr::RETIRED_94), "retired_94");
        assert_eq!(c(ctr::RETIRED_95), "retired_95");
        assert_eq!(c(ctr::NW_RECONCILE_WITHHELD), "nw_reconcile_withheld");
        assert_eq!(c(ctr::NW_RECONCILE_UNVOUCHED), "nw_reconcile_unvouched");
        assert_eq!(c(ctr::RETIRED_99), "retired_99");
        assert_eq!(c(ctr::NW_DELIVER_ACKS), "nw_deliver_acks");
        assert_eq!(c(ctr::NW_DELIVER_RESENDS), "nw_deliver_resends");
        assert_eq!(c(ctr::NW_ANNOUNCES), "nw_announces");
        assert_eq!(c(ctr::NW_ANNOUNCE_PAYLOADS), "nw_announce_payloads");
        assert_eq!((ctr::NW_ANNOUNCES.0, ctr::NW_ANNOUNCE_PAYLOADS.0), (102, 103));
        assert_eq!(gauge::NAMES[gauge::ASTRO_ROWS_HELD.0 as usize], "astro_rows_held");
        assert_eq!(gauge::NAMES[gauge::NW_PEAK_QUEUE.0 as usize], "nw_peak_queue");
        assert_eq!(gauge::NAMES[gauge::RETIRED_2.0 as usize], "retired_2");
        assert_eq!(hist::NAMES[hist::GOSSIP_DIGEST_BYTES.0 as usize], "gossip_digest_bytes");
        assert_eq!(series::NAMES[series::RETIRED_0.0 as usize], "retired_0");
        assert_eq!(series::NAMES[series::RECOVERY_DURATION_US.0 as usize], "recovery_duration_us");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // gossip_diff_rows: edges 1, 2, 4, …, 256.
        let h = hist::GOSSIP_DIFF_ROWS;
        let mut m = MetricSet::new();
        // Underflow: strictly below the first edge.
        assert_eq!(m.hist_record(h, 0), 0);
        // An edge value belongs to the bucket it opens: [4, 8).
        assert_eq!(m.hist_record(h, 4), 3);
        assert_eq!(m.hist_record(h, 7), 3);
        // [256, ∞) is overflow.
        assert_eq!(m.hist_record(h, 256), 9);
        assert_eq!(m.hist_record(h, u64::MAX), 9);
        assert_eq!(m.hist_buckets(h), &[1, 0, 0, 2, 0, 0, 0, 0, 0, 2]);
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
        m.series_push(series::RECOVERY_DURATION_US, 42);
        m.series_push(series::RECOVERY_DURATION_US, 17);
        assert_eq!(m.series(series::RECOVERY_DURATION_US), &[42, 17]);
        assert!(!m.is_zero());
    }

    #[test]
    fn counters_list_in_slot_order() {
        let mut m = MetricSet::new();
        for (slot, v) in [(96, 1), (0, 2), (130, 3), (81, 4), (0, 5)] {
            m.ctr_add(CtrId(slot), v);
        }
        let expect = [(CtrId(0), 7), (CtrId(81), 4), (CtrId(96), 1), (CtrId(130), 3)];
        assert_eq!(m.counters_nonzero().collect::<Vec<_>>(), expect);
        assert_eq!((m.ctr(CtrId(129)), m.ctr(CtrId(500))), (0, 0));
    }

    /// The columns hold what a [`MetricSet`] per node held: a seeded
    /// stream of every kind of update, nodes past the table included, a
    /// growth of the table midway and a reset, read back slot by slot, as
    /// totals and as each node's export.
    #[test]
    fn the_columns_match_a_metric_set_per_node() {
        let mut cols = NodeColumns::default();
        let mut model: Vec<MetricSet> = Vec::new();
        let grow = |cols: &mut NodeColumns, model: &mut Vec<MetricSet>, n: usize| {
            cols.grow(n);
            model.resize_with(n.max(model.len()), MetricSet::new);
        };
        grow(&mut cols, &mut model, 5);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for step in 0..4_000 {
            if step == 2_000 {
                grow(&mut cols, &mut model, 9);
            }
            if step == 3_000 {
                cols.reset();
                model.iter_mut().for_each(MetricSet::reset);
            }
            let node = next(model.len() as u64 + 2) as usize;
            let bits = next(20);
            let v = next(1 << bits);
            let (c, g) = (CtrId(next(ctr::NAMES.len() as u64) as u16), GaugeId(next(3) as u16));
            let (h, s) = (HistId(next(2) as u16), SeriesId(next(2) as u16));
            let op = next(5);
            match op {
                0 => cols.ctr_add(node, c, v),
                1 => cols.gauge_set(node, g, v),
                2 => cols.gauge_max(node, g, v),
                3 => cols.hist_record(node, h, v),
                _ => cols.series_push(node, s, v),
            }
            if let Some(m) = model.get_mut(node) {
                match op {
                    0 => m.ctr_add(c, v),
                    1 => m.gauge_set(g, v),
                    2 => m.gauge_max(g, v),
                    3 => _ = m.hist_record(h, v),
                    _ => m.series_push(s, v),
                }
            }
        }
        assert_eq!(cols.nodes(), model.len());
        for (node, m) in model.iter().enumerate() {
            assert_eq!(cols.is_zero(node), m.is_zero(), "node {node}");
            let (a, b) = (cols.node_metrics(node), NodeMetrics::from_set(node as u32, m));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "node {node}");
        }
        for slot in 0..ctr::NAMES.len() as u16 {
            let total: u64 = model.iter().map(|m| m.ctr(CtrId(slot))).sum();
            assert_eq!(cols.ctr_total(CtrId(slot)), total, "counter {slot}");
        }
        for slot in 0..3 {
            let total: u64 = model.iter().map(|m| m.gauge(GaugeId(slot))).sum();
            assert_eq!(cols.gauge_total(GaugeId(slot)), total, "gauge {slot}");
        }
    }

    #[test]
    fn a_nodes_bucket_count_saturates() {
        let mut cols = NodeColumns::default();
        cols.grow(2);
        let h = hist::GOSSIP_DIFF_ROWS;
        cols.hist_record(1, h, 3);
        let at = hist_width(h.0 as usize) + hist::EDGES[h.0 as usize].partition_point(|&e| e <= 3);
        cols.hists[h.0 as usize][at] = u32::MAX - 1;
        cols.hist_record(1, h, 3);
        cols.hist_record(1, h, 3);
        let (_, buckets) = &cols.node_metrics(1).hists[0];
        assert_eq!(buckets.iter().sum::<u64>(), u64::from(u32::MAX));
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = MetricSet::new();
        m.ctr_add(ctr::NW_DELIVERED, 9);
        m.gauge_set(gauge::NW_PEAK_QUEUE, 4);
        m.hist_record(hist::GOSSIP_DIGEST_BYTES, 300);
        m.series_push(series::RECOVERY_DURATION_US, 1);
        assert!(!m.is_zero());
        m.reset();
        assert!(m.is_zero());
        assert_eq!(m.ctr(ctr::NW_DELIVERED), 0);
        assert!(m.series(series::RECOVERY_DURATION_US).is_empty());
    }
}
