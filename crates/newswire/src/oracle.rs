//! The chaos-testing invariant oracle.
//!
//! Fault-injection runs (the fuzz suite, E13, `examples/chaos_day`) all ask
//! the same three questions of a finished deployment, so the checks live
//! here once:
//!
//! 1. **No duplicate deliveries** — a node's application sees each item at
//!    most once, no matter how many redundant representatives, retries, or
//!    network-level duplications raced to deliver it.
//! 2. **No unwanted deliveries** — everything a node's application received
//!    matches its exact subscription (Bloom aliasing must be caught by the
//!    §6 final test, repair must re-filter).
//! 3. **Eventual delivery** — every *continuously live* node whose
//!    subscription matches a published item eventually holds it. Nodes that
//!    crashed during the run are exempt from this check (they may have been
//!    down at the wrong moment) but still subject to the first two.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use newsml::{ItemId, NewsItem};
use simnet::NodeId;

use crate::deploy::Deployment;

/// One invariant violation, attributed to a node and an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The node at fault.
    pub node: NodeId,
    /// The item involved.
    pub item: ItemId,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {} / item {}:{}", self.node.0, self.item.publisher.0, self.item.seq)
    }
}

/// The oracle's findings over one finished run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Nodes examined.
    pub nodes_checked: usize,
    /// Published items examined.
    pub items_checked: usize,
    /// Nodes exempt from the eventual-delivery check (they churned).
    pub exempt_nodes: usize,
    /// Items an application saw more than once.
    pub duplicate_deliveries: Vec<Violation>,
    /// Items delivered to an application whose subscription rejects them.
    pub unwanted_deliveries: Vec<Violation>,
    /// `(survivor, matching item)` pairs that never delivered.
    pub missed_deliveries: Vec<Violation>,
    /// `(survivor, matching item)` pairs expected to deliver.
    pub survivor_expected: u64,
    /// How many of those actually delivered.
    pub survivor_delivered: u64,
    /// `(survivor, publisher)` article logs left with holes — partition
    /// damage anti-entropy never reconciled. One violation per
    /// `(node, first missing seq)` pair.
    pub unconverged_logs: Vec<Violation>,
    /// Items an application delivered that no publisher ever published —
    /// fabricated content that slipped past signature verification (DESIGN
    /// §12). Empty on every defended run; the Byzantine ablations exist to
    /// make this list fill up.
    pub forged_deliveries: Vec<Violation>,
    /// Forged deliveries during the sanctioned key-compromise exposure
    /// window (DESIGN §15): the delivering node had not yet adopted the
    /// rotation record, so the stolen key was — from its vantage — still
    /// the publisher's valid key. Not a violation; the run's exposure
    /// metric. Only populated when the deployment scheduled a rotation.
    pub compromise_exposure: Vec<Violation>,
    /// Forged deliveries made by a node *after* it adopted the rotation
    /// record revoking the forger's key — the fence was armed and failed
    /// anyway. Always a violation; defended runs must keep this empty.
    pub post_revocation_forged: Vec<Violation>,
    /// Sanctioned re-deliveries after a retroactive purge (DESIGN §15): a
    /// stolen key can squat the publisher's *future* sequence numbers, so
    /// when the genuine item for such an id arrives post-rotation, the node
    /// — whose tainted copy was purged — correctly admits and delivers it
    /// again. At most one re-delivery per id is sanctioned, and only when
    /// the first delivery predates the node's rotation adoption; anything
    /// beyond that is a plain duplicate violation.
    pub purge_redeliveries: Vec<Violation>,
}

impl OracleReport {
    /// True when all three invariants held.
    pub fn holds(&self) -> bool {
        self.duplicate_deliveries.is_empty()
            && self.unwanted_deliveries.is_empty()
            && self.missed_deliveries.is_empty()
    }

    /// True when, additionally, every survivor's article logs are
    /// hole-free — the post-partition convergence invariant. Kept separate
    /// from [`OracleReport::holds`]: log convergence is only promised when
    /// anti-entropy reconciliation is enabled, and the ablation arms of the
    /// partition experiments deliberately run without it.
    pub fn converged(&self) -> bool {
        self.unconverged_logs.is_empty()
    }

    /// True when no application delivered an item outside the ground-truth
    /// published set — the whole-run forgery-safety verdict (DESIGN §12).
    /// Kept separate from [`OracleReport::holds`] for the same reason as
    /// [`OracleReport::converged`]: the forgery experiments' ablation arms
    /// run with signature enforcement off, and their oracle reports must
    /// still distinguish "missed a delivery" from "admitted a fake".
    pub fn no_forged_delivery(&self) -> bool {
        self.forged_deliveries.is_empty()
    }

    /// True when no node delivered forged content after adopting the
    /// revocation that outlawed its signing key — the trust-root rotation
    /// verdict (DESIGN §15). Vacuously true when no rotation was
    /// scheduled; deliveries inside the sanctioned exposure window (see
    /// [`OracleReport::compromise_exposure`]) do not count against it.
    pub fn no_post_revocation_delivery(&self) -> bool {
        self.post_revocation_forged.is_empty()
    }

    /// Fraction of `(survivor, matching item)` pairs that delivered
    /// (1.0 when nothing was expected).
    pub fn survivor_delivery_ratio(&self) -> f64 {
        if self.survivor_expected == 0 {
            1.0
        } else {
            self.survivor_delivered as f64 / self.survivor_expected as f64
        }
    }

    /// Panics with a readable report if any invariant failed.
    ///
    /// # Panics
    ///
    /// Panics when [`OracleReport::holds`] is false.
    pub fn assert_holds(&self) {
        assert!(self.holds(), "invariant oracle failed:\n{self}");
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle: {} ({} nodes, {} items, {} exempt; survivor delivery {}/{} = {:.1}%)",
            if self.holds() { "OK" } else { "VIOLATED" },
            self.nodes_checked,
            self.items_checked,
            self.exempt_nodes,
            self.survivor_delivered,
            self.survivor_expected,
            100.0 * self.survivor_delivery_ratio(),
        )?;
        if !self.converged() {
            writeln!(f, "  ({} unconverged article logs)", self.unconverged_logs.len())?;
        }
        if !self.no_forged_delivery() {
            writeln!(f, "  ({} forged deliveries)", self.forged_deliveries.len())?;
        }
        if !self.compromise_exposure.is_empty() {
            writeln!(
                f,
                "  ({} forged deliveries inside the sanctioned exposure window)",
                self.compromise_exposure.len()
            )?;
        }
        if !self.purge_redeliveries.is_empty() {
            writeln!(
                f,
                "  ({} sanctioned re-deliveries after retroactive purge)",
                self.purge_redeliveries.len()
            )?;
        }
        for (label, list) in [
            ("duplicate delivery", &self.duplicate_deliveries),
            ("unwanted delivery", &self.unwanted_deliveries),
            ("missed delivery", &self.missed_deliveries),
            ("unconverged log", &self.unconverged_logs),
            ("forged delivery", &self.forged_deliveries),
            ("post-revocation forged delivery", &self.post_revocation_forged),
        ] {
            for v in list.iter().take(8) {
                writeln!(f, "  {label}: {v}")?;
            }
            if list.len() > 8 {
                writeln!(f, "  … and {} more {label} violations", list.len() - 8)?;
            }
        }
        Ok(())
    }
}

/// Runs the three invariants over a finished deployment.
///
/// `items` are the ground-truth published items; `exempt` holds nodes that
/// were not continuously live (churned at least once), which the
/// eventual-delivery check skips. Publisher nodes are always exempt from
/// eventual delivery (they carry empty subscriptions anyway).
pub fn check_invariants(
    deployment: &Deployment,
    items: &[NewsItem],
    exempt: &BTreeSet<NodeId>,
) -> OracleReport {
    let by_id: BTreeMap<ItemId, &NewsItem> = items.iter().map(|i| (i.id, i)).collect();
    // Highest ground-truth sequence number per publisher, for the log
    // convergence check.
    let mut max_seq: BTreeMap<newsml::PublisherId, u64> = BTreeMap::new();
    for item in items {
        let e = max_seq.entry(item.id.publisher).or_insert(item.id.seq);
        *e = (*e).max(item.id.seq);
    }
    // The authoritative log epoch per publisher: whatever the publisher's
    // own node holds. A fabricated epoch that spread by reconciliation
    // contagion leaves subscribers sequencing a history the publisher
    // never started — coverage can look hole-free at the fake epoch, so
    // convergence must also mean epoch agreement with the authority.
    let authority_epoch: BTreeMap<newsml::PublisherId, u32> = deployment
        .publishers
        .iter()
        .map(|&(p, nid)| (p, deployment.sim.node(nid).article_log(p).map_or(0, |log| log.epoch())))
        .collect();
    let mut report = OracleReport {
        items_checked: items.len(),
        exempt_nodes: exempt.len(),
        ..OracleReport::default()
    };

    for (node_id, node) in deployment.sim.iter() {
        report.nodes_checked += 1;

        // Invariant 1: at most one application delivery per item. One
        // exception, only with a rotation in flight: an id first delivered
        // before this node adopted the revocation may be delivered once
        // more afterwards — the retroactive purge scrubbed the tainted
        // copy, and the genuine successor-key item takes its place.
        let mut seen: BTreeSet<ItemId> = BTreeSet::new();
        let mut pre_adoption: BTreeSet<ItemId> = BTreeSet::new();
        for d in &node.deliveries {
            // Strictly after: a delivery stamped at the adoption instant
            // itself was admitted before the fence armed within that tick
            // (an armed fence would have refused it outright).
            let adopted_after = node.rotation_adopted_at.is_some_and(|t| d.delivered > t);
            if !seen.insert(d.item) {
                let sanctioned = deployment.revocation_at.is_some()
                    && adopted_after
                    && pre_adoption.remove(&d.item);
                if sanctioned {
                    report.purge_redeliveries.push(Violation { node: node_id, item: d.item });
                } else {
                    report.duplicate_deliveries.push(Violation { node: node_id, item: d.item });
                }
            } else if !adopted_after {
                pre_adoption.insert(d.item);
            }
            // Invariant 2: the exact subscription admits everything the
            // application saw. A delivered id absent from the ground-truth
            // set is fabricated content — no publisher ever issued it — and
            // lands in the forgery-safety verdict (DESIGN §12).
            match by_id.get(&d.item) {
                Some(item) => {
                    if !node.subscription.matches(item) {
                        report.unwanted_deliveries.push(Violation { node: node_id, item: d.item });
                    }
                }
                None => {
                    // With a rotation in flight, split by whether THIS
                    // node's fence was armed when it delivered: before
                    // adoption (inclusive — admissions stamped at the
                    // adoption instant preceded the fence within that tick)
                    // the stolen key was locally valid (exposure, DESIGN
                    // §15); after adoption it is a hard violation.
                    let sanctioned = deployment.revocation_at.is_some()
                        && node.rotation_adopted_at.is_none_or(|t| d.delivered <= t);
                    if sanctioned {
                        report.compromise_exposure.push(Violation { node: node_id, item: d.item });
                    } else {
                        report.forged_deliveries.push(Violation { node: node_id, item: d.item });
                        if deployment.revocation_at.is_some() {
                            report
                                .post_revocation_forged
                                .push(Violation { node: node_id, item: d.item });
                        }
                    }
                }
            }
        }

        // Invariant 3: continuously-live interested nodes deliver.
        if exempt.contains(&node_id) {
            continue;
        }
        let mut interested_publishers: BTreeSet<newsml::PublisherId> = BTreeSet::new();
        for item in items {
            if node.subscription.matches(item) {
                report.survivor_expected += 1;
                if seen.contains(&item.id) {
                    report.survivor_delivered += 1;
                } else {
                    report.missed_deliveries.push(Violation { node: node_id, item: item.id });
                }
                interested_publishers.insert(item.id.publisher);
            }
        }

        // Post-partition convergence: an interested survivor's article log
        // must be hole-free through the last ground-truth sequence number —
        // everything published while the node was unreachable has been seen
        // (delivered, or vouched unservable by a reconcile peer).
        for publisher in interested_publishers {
            let hw = max_seq[&publisher];
            match node.article_log(publisher) {
                None => {
                    report
                        .unconverged_logs
                        .push(Violation { node: node_id, item: ItemId::new(publisher, 0) });
                }
                Some(log) => {
                    if authority_epoch.get(&publisher).is_some_and(|&e| e != log.epoch()) {
                        report.unconverged_logs.push(Violation {
                            node: node_id,
                            item: ItemId::new(publisher, u64::from(log.epoch())),
                        });
                    } else if let Some(&(lo, _)) = log.gaps().first() {
                        report
                            .unconverged_logs
                            .push(Violation { node: node_id, item: ItemId::new(publisher, lo) });
                    } else if log.next_seq() <= hw {
                        report.unconverged_logs.push(Violation {
                            node: node_id,
                            item: ItemId::new(publisher, log.next_seq()),
                        });
                    }
                }
            }
        }
    }

    // Verdict counters land in the deployment's global metric set so the
    // drained telemetry carries the oracle's conclusion alongside the raw
    // traffic it judged.
    {
        use obs::ctr;
        let hub = deployment.sim.telemetry();
        let mut hub = hub.borrow_mut();
        let g = hub.global_mut();
        g.ctr_add(ctr::ORACLE_RUNS, 1);
        g.ctr_add(ctr::ORACLE_DUP_VIOLATIONS, report.duplicate_deliveries.len() as u64);
        g.ctr_add(ctr::ORACLE_UNWANTED_VIOLATIONS, report.unwanted_deliveries.len() as u64);
        g.ctr_add(ctr::ORACLE_MISSED_VIOLATIONS, report.missed_deliveries.len() as u64);
        g.ctr_add(ctr::ORACLE_UNCONVERGED_LOGS, report.unconverged_logs.len() as u64);
        g.ctr_add(ctr::ORACLE_FORGED_VIOLATIONS, report.forged_deliveries.len() as u64);
    }
    report
}

/// The verdict of [`self_stabilized`]: whether every invariant was restored
/// within the allotted number of gossip rounds after a corruption window.
#[derive(Debug, Clone)]
pub struct StabilizationReport {
    /// True when all invariants held (and logs converged) within budget.
    pub stabilized: bool,
    /// Gossip rounds actually stepped before the verdict (0 if the system
    /// was already clean when called).
    pub rounds_used: u32,
    /// The round budget the caller allowed.
    pub rounds_budget: u32,
    /// The oracle report from the final round checked.
    pub report: OracleReport,
}

impl fmt::Display for StabilizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "self-stabilization: {} in {}/{} gossip rounds",
            if self.stabilized { "RESTORED" } else { "NOT RESTORED" },
            self.rounds_used,
            self.rounds_budget,
        )?;
        self.report.fmt(f)
    }
}

/// The self-stabilization oracle: steps the deployment one gossip round at
/// a time — call it *after* every corruption/liar window has closed — until
/// the three invariants hold and all article logs have converged, or
/// `within_rounds` rounds elapse.
///
/// A round is one Astrolabe gossip interval of simulated time; the verdict
/// is recorded in the global metric set (`oracle_stabilization_runs`) and
/// as a `self_stabilized` trace event (`a` = rounds used, `b` = 1 when
/// stabilized) so drained telemetry carries it.
pub fn self_stabilized(
    deployment: &mut Deployment,
    items: &[NewsItem],
    exempt: &BTreeSet<NodeId>,
    within_rounds: u32,
) -> StabilizationReport {
    let interval = deployment.config.astrolabe.gossip_interval;
    let mut rounds_used = 0u32;
    let clean = |r: &OracleReport| {
        r.holds() && r.converged() && r.no_forged_delivery() && r.no_post_revocation_delivery()
    };
    let mut report = check_invariants(deployment, items, exempt);
    while rounds_used < within_rounds && !clean(&report) {
        let deadline = deployment.sim.now() + interval;
        deployment.sim.run_until(deadline);
        rounds_used += 1;
        report = check_invariants(deployment, items, exempt);
    }
    let stabilized = clean(&report);
    let now_us = deployment.sim.now().as_micros();
    let hub = deployment.sim.telemetry();
    let mut hub = hub.borrow_mut();
    hub.global_mut().ctr_add(obs::ctr::ORACLE_STABILIZATION_RUNS, 1);
    hub.trace_at(
        now_us,
        u32::MAX,
        obs::Layer::News,
        obs::kind::SELF_STABILIZED,
        rounds_used as u64,
        stabilized as u64,
    );
    StabilizationReport { stabilized, rounds_used, rounds_budget: within_rounds, report }
}

/// Distills a collusion sweep into its breaking point: the smallest colluding
/// fraction at which the system failed to self-stabilize. `samples` pairs
/// each run's colluding fraction with its stabilization verdict; the result
/// is `None` when every sampled fraction stabilized (no breaking point found
/// within the sweep). E18 reports this per adversary script, defended and
/// undefended — the defended column should be `None` up to the largest
/// fraction swept, the ablation column should break early.
pub fn collusion_breaking_point(samples: &[(f64, bool)]) -> Option<f64> {
    samples
        .iter()
        .filter(|(_, stabilized)| !stabilized)
        .map(|&(fraction, _)| fraction)
        .min_by(|a, b| a.total_cmp(b))
}
