//! The adversary inside a node: the state-corruption strikes and outbound
//! lies the fault engine drives through the [`simnet::Node`] hooks. An honest
//! deployment never calls into this module.

use std::sync::Arc;

use amcast::RangeSummary;
use astrolabe::{Agent, AttrValue, GossipMsg, KeyId, Mib, MibBuilder, Signature, Stamp, TableRows};
use filters::BitArray;
use newsml::{Category, NewsItem, PublisherId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::{CorruptionOp, LiarAction, LiarMode, NodeId};

use super::admit::Admitted;
use super::{NewsWireNode, SYBIL_ID_BASE};
use crate::auth::PublisherCredential;
use crate::wire::NewsWireMsg;

impl NewsWireNode {
    /// Lands one state-corruption strike on this node; returns how much it
    /// hit.
    pub(super) fn corrupt(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
        match *op {
            CorruptionOp::ZoneRows { rows } => {
                // Two prongs. First: scramble this node's own subscription
                // advertisement — poison that propagates upward under
                // perfectly legitimate stamps until the self-audit
                // re-derives it from the subscription object.
                let mut hit = 0u64;
                for (attr, want) in self.derived_sub_attrs() {
                    let zeroed = match want {
                        AttrValue::Bits(b) => AttrValue::from(BitArray::new(b.len())),
                        _ => AttrValue::Int(0),
                    };
                    self.agent.set_local_attr(&attr, zeroed);
                    hit += 1;
                }
                // Second: scramble held replicas in place, stamps kept —
                // corruption digest-driven anti-entropy cannot see.
                hit + self.agent.corrupt_rows(rng, rows)
            }
            CorruptionOp::ForgeItems { items, publisher } => {
                // A Byzantine cache: fabricate items impersonating
                // `publisher`, planted just past the local log head —
                // exactly where honest tail catch-up and repair look next.
                // The forger's own log and digest rider advertise them as
                // real coverage; the bogus signatures drawn from the
                // strike stream are what defended receivers refuse.
                let publisher = PublisherId(publisher);
                let base = self.reconcile.next_seq(publisher);
                let now = self.clock;
                let mut injected = 0u64;
                for k in 0..u64::from(items) {
                    let seq = base + k;
                    let item = NewsItem::builder(publisher, seq)
                        .headline(format!("FORGED dispatch {seq}"))
                        .category(Category::Technology)
                        .build();
                    self.reconcile.log_seen(item.id, None, now);
                    let sig = (KeyId(rng.gen()), Signature(rng.gen()));
                    self.cache_insert(Admitted::planted(Arc::new(item), sig), now);
                    injected += 1;
                }
                injected
            }
            CorruptionOp::VoteEpoch { publisher, epoch } => {
                // A colluder votes the group's shared fabricated epoch into
                // its own article log and digest rider. Enough same-zone
                // voters capture the unsigned neighbour-consensus mode that the
                // legacy epoch fence trusts; phantom head coverage makes
                // the captured digest look fresher than any honest one.
                if !self.reconcile.forge_epoch(PublisherId(publisher), epoch, 8) {
                    return 0;
                }
                9
            }
            CorruptionOp::LogEpoch { entries } => {
                // Poison one article log with a fabricated newer epoch plus
                // phantom coverage. The next digest rider advertises it;
                // with defenses off the fake epoch spreads by reconcile
                // contagion (every absorber adopts and wipes its log).
                let publishers: Vec<PublisherId> = self.reconcile.logged_publishers().collect();
                let Some(&publisher) = publishers.as_slice().choose(rng) else { return 0 };
                let fake = self.reconcile.epoch(publisher) + 1;
                self.reconcile.forge_epoch(publisher, fake, u64::from(entries));
                u64::from(entries) + 1
            }
            CorruptionOp::StolenKey { publisher, items, attest_bump } => {
                // The adversary holds the publisher's *real* signing key.
                // Preferring the retired certificate over the primary keeps
                // the attack honest across a rotation: after the victim
                // re-keys, the stolen key is the *old* one, so its
                // forgeries only verify on nodes that have not yet adopted
                // the rotation.
                let publisher = PublisherId(publisher);
                let Some(cert) = self.trust.compromised_cert(publisher) else { return 0 };
                let Some(stolen) = self.registry.exfiltrate_key(cert.key) else { return 0 };
                let cred = PublisherCredential::from_parts(cert, stolen);
                let base = self.reconcile.next_seq(publisher);
                let now = self.clock;
                let mut hit = 0u64;
                for k in 0..u64::from(items) {
                    let seq = base + k;
                    let item = NewsItem::builder(publisher, seq)
                        .headline(format!("STOLEN-KEY dispatch {seq}"))
                        .category(Category::Technology)
                        .build();
                    let sig = cred.sign(&item);
                    self.reconcile.log_seen(item.id, None, now);
                    self.cache_insert(Admitted::planted(Arc::new(item), (cred.key_id(), sig)), now);
                    hit += 1;
                }
                if attest_bump > 0 {
                    // A bogus epoch attestation, validly signed with the
                    // stolen key: the signed-authority defense *verifies*
                    // it — only revocation (admission path 5) stops it.
                    let log_epoch = self.reconcile.epoch(publisher);
                    let epoch = self
                        .trust
                        .authority_epoch(publisher)
                        .unwrap_or(0)
                        .max(log_epoch)
                        .saturating_add(attest_bump);
                    let attest = cred.attest_epoch(epoch);
                    self.absorb_attest(&attest);
                    hit += 1;
                }
                hit
            }
            CorruptionOp::SybilFlood { identities, .. } => {
                // Fabricated identities injected into this node's own leaf
                // table under perfectly valid row structure: in-range
                // label, required `id` attribute, fresh (non-future) stamp.
                // The corrupt node merges its own message unconditionally;
                // honest receivers with admission control on refuse the
                // rows at gossip ingest for lacking a join ticket. A Sybil
                // sends nothing, so it has no digest rider and no vote in
                // the epoch consensus, wherever its row is held.
                let now = self.clock;
                let branching = self.agent.config().branching;
                let own = self.agent.own_label(0);
                let salt: u32 = rng.gen_range(0..0x1000);
                let mut rows: Vec<(u16, Stamp, Arc<Mib>)> = Vec::new();
                let mut label = 0u16;
                for k in 0..identities {
                    if label == own {
                        label += 1;
                    }
                    if label >= branching {
                        break; // a leaf zone has only `branching` slots
                    }
                    let id = SYBIL_ID_BASE + salt * 64 + k;
                    let row = MibBuilder::new().attr("id", i64::from(id)).build(Stamp {
                        issued_us: now.as_micros(),
                        version: 1,
                        origin: id,
                    });
                    rows.push((label, row.stamp, Arc::new(row)));
                    label += 1;
                }
                if rows.is_empty() {
                    return 0;
                }
                let injected = rows.len() as u64;
                let zone = self.agent.zone(0).clone();
                let msg = GossipMsg::Rows { rows: vec![TableRows { zone, rows }] };
                let _ = self.agent.on_message(now, self.agent.id(), msg, rng);
                injected
            }
            // Torn disk bytes are flipped by the engine (`Disk::corrupt`)
            // without consulting the node.
            CorruptionOp::DiskBytes { .. } => 0,
        }
    }
}

/// Rewrites an outbound message the way a liar in `mode` would; `agent`
/// is the liar's own, whose tables hold the rows it gossips about.
pub(super) fn tamper_outbound(
    agent: &Agent,
    to: NodeId,
    msg: &mut NewsWireMsg,
    mode: LiarMode,
) -> LiarAction {
    match mode {
        // A lying representative mis-aggregates: the subscription
        // summaries in every row it gossips are zeroed (under the
        // rows' legitimate stamps), steering forwarding away from the
        // subtrees those rows summarize.
        LiarMode::MisSummarize => mis_summarize_gossip(agent, msg),
        // A lying forwarder silently swallows the news itself while
        // staying a lively, cooperative gossip participant.
        LiarMode::SelectiveDrop => match msg {
            NewsWireMsg::Forward { .. } | NewsWireMsg::Deliver { .. } => LiarAction::Dropped,
            _ => LiarAction::Pass,
        },
        // A liar re-advertising empty anti-entropy digests: peers never
        // select it as a reconcile source and reconciliation pressure
        // shifts onto the honest rest of the zone.
        LiarMode::StaleDigest => empty_digest_rider(msg),
        // Split-brain lying: different stories to different
        // destinations. Half the peer space sees this node's true
        // digests, the other half sees empty ones — no single receiver
        // can observe the inconsistency, only the digest-contradiction
        // strike (request what was advertised, get an empty reply)
        // catches it.
        LiarMode::SplitBrain => {
            if to.0 % 2 == 1 {
                empty_digest_rider(msg)
            } else {
                LiarAction::Pass
            }
        }
    }
}

/// Mis-summarizes every row an outbound gossip message carries. A reply
/// sends a row the receiver already holds the values of as a refresh
/// record, a stamp and a hash with no values to zero; the liar ships such
/// a row whole instead, mis-summarized under the record's stamp, so the lie
/// lands wherever the honest row would only have been restamped. Returns
/// `Tampered` when any row was rewritten.
fn mis_summarize_gossip(agent: &Agent, msg: &mut NewsWireMsg) -> LiarAction {
    let NewsWireMsg::Gossip { g, .. } = msg else { return LiarAction::Pass };
    let (batches, refresh) = match g {
        GossipMsg::DigestReply { rows, refresh, .. } => (rows, Some(refresh)),
        GossipMsg::Rows { rows } => (rows, None),
        GossipMsg::Digest { .. } => return LiarAction::Pass,
    };
    let mut tampered = false;
    for batch in batches.iter_mut() {
        for (_, _, row) in batch.rows.iter_mut() {
            if let Some(fake) = mis_summarized(row) {
                *row = fake;
                tampered = true;
            }
        }
    }
    if let Some(refresh) = refresh {
        for (zone, records) in refresh.iter_mut() {
            let Some(level) = agent.level_of(zone) else { continue };
            let mut rows = Vec::new();
            records.retain(|rec| {
                let fake = agent.table(level).get(rec.label).and_then(|row| mis_summarized(row));
                fake.map(|fake| rows.push((rec.label, rec.stamp, fake))).is_none()
            });
            if !rows.is_empty() {
                batches.push(TableRows { zone: zone.clone(), rows });
                tampered = true;
            }
        }
        refresh.retain(|(_, records)| !records.is_empty());
    }
    if tampered {
        LiarAction::Tampered
    } else {
        LiarAction::Pass
    }
}

/// A mis-aggregated copy of `row`: subscription summaries (`subs` Bloom
/// bits, `cats$` masks) zeroed, stamp kept — indistinguishable from the
/// honest version by version vector. `None` when the row carries none.
fn mis_summarized(row: &Mib) -> Option<Arc<Mib>> {
    let zeroed = |name: &str, value: &AttrValue| match value {
        AttrValue::Bits(b) if name == "subs" && !b.is_zero() => {
            Some(AttrValue::from(BitArray::new(b.len())))
        }
        AttrValue::Int(n) if name.starts_with("cats$") && *n != 0 => Some(AttrValue::Int(0)),
        _ => None,
    };
    let mut changed = false;
    let attrs = row
        .attrs()
        .iter()
        .map(|(name, value)| {
            let zero = zeroed(name, value);
            changed |= zero.is_some();
            (Arc::clone(name), zero.unwrap_or_else(|| value.clone()))
        })
        .collect();
    changed.then(|| Arc::new(Mib::new(row.stamp, attrs)))
}

/// Rewrites an outbound digest rider to claim empty coverage for every
/// publisher it names. `Tampered` when any summary was not empty already.
fn empty_digest_rider(msg: &mut NewsWireMsg) -> LiarAction {
    let NewsWireMsg::Gossip { digests: Some(digests), .. } = msg else { return LiarAction::Pass };
    let empty = RangeSummary::default();
    if digests.iter().all(|(_, s)| *s == empty) {
        return LiarAction::Pass;
    }
    *digests = digests.iter().map(|&(p, _)| (p, empty)).collect();
    LiarAction::Tampered
}
