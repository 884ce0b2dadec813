//! The admission funnel (DESIGN §12, §15): every article enters a node's
//! cache through [`NewsWireNode::admit`], over one [`Trust`] table.
//!
//! An article comes from one of three [`Source`]s — a tree envelope, a
//! reconcile reply, or the node's own disk — and `admit` runs the same two
//! checks on each, in order: the revocation fence first (a revoked key-epoch
//! signs *validly*), then the signature. What passes comes back as an
//! [`Admitted`], the only thing [`NewsWireNode::cache_insert`] accepts.
//! Nothing outside this module makes one, bar two named constructors: the
//! publisher's own article and the adversary's plants.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use astrolabe::{Certificate, KeyId, RotationRecord, Signature};
use newsml::{NewsItem, PublisherId};
use obs::{ctr, kind, Layer};
use simnet::{NodeId, SimTime};

use super::{NewsWireNode, MISBEHAVIOR_FORGED, ROT_ATTR_PREFIX};
use crate::auth::{verify_bare_item, verify_epoch_attest, verify_item, EpochAttest};
use crate::cache::{CacheOutcome, Proof};
use crate::wire::{Envelope, RotationRider};

/// Where an article offered for admission came from.
pub(super) enum Source<'a> {
    /// A tree copy from `from` — a `Forward` or a `Deliver` — checked
    /// against the certificate chain its envelope carries.
    Tree { env: &'a Envelope, from: NodeId },
    /// A bare article in a reconcile reply from `from`.
    Reconcile { from: NodeId },
    /// A bare article from this node's own stable storage.
    Disk,
}

impl Source<'_> {
    /// The admission path a rejection's trace record names: 1 envelopes,
    /// 3 reconcile replies, 4 disk restores (5 is epoch attestations, 2 was
    /// the retired named pull's replies).
    fn path(&self) -> u64 {
        match self {
            Source::Tree { .. } => 1,
            Source::Reconcile { .. } => 3,
            Source::Disk => 4,
        }
    }
}

/// An article that passed admission, with the proof it passed on.
#[derive(Debug, Clone)]
pub(super) struct Admitted {
    item: Arc<NewsItem>,
    proof: Proof,
}

impl Admitted {
    /// The publisher's own article, signed a moment ago with its own key.
    pub(super) fn published(item: Arc<NewsItem>, proof: Proof) -> Self {
        Admitted { item, proof }
    }

    /// An article an adversary plants in its own cache (`ForgeItems`,
    /// `StolenKey`): the one way past the funnel, and the reason every
    /// receiver admits what a peer serves afresh.
    pub(super) fn planted(item: Arc<NewsItem>, proof: Proof) -> Self {
        Admitted { item, proof }
    }

    /// An unsigned article for a unit test that drives the handlers past
    /// admission.
    #[cfg(test)]
    pub(super) fn unverified(item: impl Into<Arc<NewsItem>>) -> Self {
        Admitted { item: item.into(), proof: crate::cache::UNSIGNED }
    }

    pub(super) fn item(&self) -> &Arc<NewsItem> {
        &self.item
    }
}

/// Which `(publisher, key)` this node trusts, and the signed evidence that
/// decided it.
#[derive(Debug, Default)]
pub(super) struct Trust {
    /// Primary certificate per publisher: pre-installed at deployment
    /// build, learned from admitted envelopes, replaced on rotation.
    publisher_certs: BTreeMap<PublisherId, Certificate>,
    /// Certificates under a key other than the primary's, learned from
    /// admitted envelopes — a rotation's successor that arrives before its
    /// record does, so honest relays of new-key items take no strikes.
    alt_certs: BTreeMap<(PublisherId, KeyId), Certificate>,
    /// Rotated-out primaries, for the `StolenKey` adversary only.
    retired_certs: BTreeMap<PublisherId, Certificate>,
    /// Keys revoked by adopted rotation records: the fence.
    revoked: BTreeSet<(PublisherId, KeyId)>,
    /// Highest rotation serial adopted per publisher: an older record
    /// cannot un-revoke a newer one.
    rotation_serials: BTreeMap<PublisherId, u32>,
    /// Adopted rotation records, in publisher order for persistence.
    rotations: BTreeMap<PublisherId, Arc<RotationRecord>>,
    /// The record adopted last, a rider on every outgoing gossip message.
    rotation_rider: Option<Arc<RotationRider>>,
    /// Newest verified epoch attestation per publisher: the authority the
    /// epoch fence trusts over neighbour consensus.
    authority: BTreeMap<PublisherId, EpochAttest>,
}

impl Trust {
    /// The trusted certificate for `(publisher, key)`: the primary when its
    /// key matches, otherwise an alternate learned from a verified envelope.
    fn cert_for(&self, publisher: PublisherId, key: KeyId) -> Option<&Certificate> {
        match self.publisher_certs.get(&publisher) {
            Some(cert) if cert.key == key => Some(cert),
            _ => self.alt_certs.get(&(publisher, key)),
        }
    }

    fn key_revoked(&self, publisher: PublisherId, key: KeyId) -> bool {
        self.revoked.contains(&(publisher, key))
    }

    /// The publisher-signed authority epoch, when an attestation is held.
    pub(super) fn authority_epoch(&self, publisher: PublisherId) -> Option<u32> {
        self.authority.get(&publisher).map(|a| a.epoch)
    }

    /// The attestation held for `publisher`, echoed in reconcile replies.
    pub(super) fn authority(&self, publisher: PublisherId) -> Option<EpochAttest> {
        self.authority.get(&publisher).copied()
    }

    pub(super) fn rider(&self) -> Option<Arc<RotationRider>> {
        self.rotation_rider.clone()
    }

    pub(super) fn rotations(&self) -> impl Iterator<Item = (&PublisherId, &Arc<RotationRecord>)> {
        self.rotations.iter()
    }

    /// The certificate a key thief signs under: the retired primary after a
    /// rotation, the primary before one.
    pub(super) fn compromised_cert(&self, publisher: PublisherId) -> Option<Certificate> {
        self.retired_certs.get(&publisher).or_else(|| self.publisher_certs.get(&publisher)).cloned()
    }

    /// A cold process forgets adopted revocations and relearns them from
    /// disk or gossip. Safe: the primary that survives is already the
    /// successor, and old-key signatures fail certificate lookup without
    /// the alternates. Primaries and attestations ship with the binary and
    /// stay.
    pub(super) fn forget_rotations(&mut self) {
        self.revoked.clear();
        self.rotation_serials.clear();
        self.rotations.clear();
        self.rotation_rider = None;
        self.alt_certs.clear();
        self.retired_certs.clear();
    }
}

impl NewsWireNode {
    /// The admission funnel. Refuses, in order: an article signed by a
    /// revoked key-epoch (no strike — an honest relay may be behind on the
    /// rotation), then one whose signature does not verify against the
    /// envelope's certificate chain (tree) or the locally trusted
    /// certificate (bare; only with `defenses` on). A network source of an
    /// invalid signature takes a misbehavior strike.
    pub(super) fn admit(
        &mut self,
        item: Arc<NewsItem>,
        key: KeyId,
        sig: Signature,
        source: Source<'_>,
    ) -> Option<Admitted> {
        let publisher = item.id.publisher;
        if self.fenced(publisher, key, source.path()) {
            return None;
        }
        let genuine = match &source {
            Source::Tree { env, .. } => {
                verify_item(&self.registry, &env.certificate, &item, &env.scope, key, sig)
            }
            Source::Reconcile { .. } | Source::Disk => {
                !self.cfg.defenses
                    || self
                        .trust
                        .cert_for(publisher, key)
                        .is_some_and(|cert| verify_bare_item(&self.registry, cert, &item, key, sig))
            }
        };
        if genuine {
            return Some(Admitted { item, proof: (key, sig) });
        }
        let (id, path, p) = (self.agent.id(), source.path(), u64::from(publisher.0));
        match &source {
            Source::Tree { .. } => obs::metric_add!(id, ctr::NW_AUTH_REJECTS, 1),
            Source::Reconcile { .. } | Source::Disk => {
                obs::metric_add!(id, ctr::NW_FORGED_REJECTS, 1);
                obs::trace_event!(id, Layer::News, kind::FORGED_REJECT, path, p);
            }
        }
        if let Source::Tree { from, .. } | Source::Reconcile { from } = source {
            self.note_misbehavior(from, MISBEHAVIOR_FORGED);
        }
        None
    }

    /// The revocation fence of admission `path`: true when `key` for
    /// `publisher` has been revoked (with `defenses` on), the reject
    /// accounted. A compromised key signs validly, so this runs before any
    /// signature check.
    fn fenced(&mut self, publisher: PublisherId, key: KeyId, path: u64) -> bool {
        if !self.cfg.defenses || !self.trust.key_revoked(publisher, key) {
            return false;
        }
        let id = self.agent.id();
        obs::metric_add!(id, ctr::NW_REVOKED_KEY_REJECTS, 1);
        obs::trace_event!(id, Layer::News, kind::REVOKED_KEY_REJECT, path, u64::from(publisher.0));
        true
    }

    /// Offers an admitted article to the cache: the one cache insert.
    pub(super) fn cache_insert(&mut self, admitted: Admitted, now: SimTime) -> CacheOutcome {
        self.cache.insert_signed(admitted.item, admitted.proof, now)
    }

    /// Pre-installs a publisher's certificate and signed epoch attestation
    /// — the out-of-band trust distribution a real deployment performs
    /// through its software package or directory service. With these in
    /// place every bare-item admission can verify from the first message
    /// and the epoch fence has signed authority from the start.
    pub fn install_publisher_authority(&mut self, certificate: Certificate, attest: EpochAttest) {
        self.trust.publisher_certs.insert(attest.publisher, certificate);
        self.absorb_attest(&attest);
    }

    /// After an admitted envelope: remember the publisher's certificate (so
    /// later bare items verify) and adopt the envelope's signed epoch
    /// attestation when it is newer than the one held.
    pub(super) fn learn_from_envelope(&mut self, env: &Envelope) {
        let publisher = env.item.id.publisher;
        match self.trust.publisher_certs.get(&publisher) {
            None => {
                self.trust.publisher_certs.insert(publisher, env.certificate.clone());
            }
            Some(held) if held.key != env.certificate.key => {
                // A key other than the held primary — e.g. the rotation
                // successor reaching this node before the rotation record
                // does. Trusted as an alternate, so bare items under the
                // new key verify without strikes against honest relays.
                self.trust
                    .alt_certs
                    .entry((publisher, env.certificate.key))
                    .or_insert_with(|| env.certificate.clone());
            }
            Some(_) => {}
        }
        self.absorb_attest(&env.attest);
    }

    /// Admission path 5: verifies and adopts a publisher-signed epoch
    /// attestation newer than the one held. The revocation fence comes
    /// first (a compromised key attests bogus epochs that verify), and only
    /// a certificate already trusted for the attesting publisher anchors the
    /// check — an attacker cannot pair a fabricated attestation with its
    /// own valid certificate for a different publisher id.
    pub(super) fn absorb_attest(&mut self, attest: &EpochAttest) {
        if self.fenced(attest.publisher, attest.key, 5) {
            return;
        }
        let trust = &mut self.trust;
        if trust.authority.get(&attest.publisher).is_some_and(|held| held.epoch >= attest.epoch) {
            return;
        }
        let Some(cert) = trust.publisher_certs.get(&attest.publisher) else { return };
        if verify_epoch_attest(&self.registry, cert, attest) {
            trust.authority.insert(attest.publisher, *attest);
        }
    }

    /// Verifies and adopts a trust-root rotation record (DESIGN §15).
    /// Serial-fenced — an older record cannot un-revoke a newer one — and
    /// registry-verified end to end (CA signature over the record plus the
    /// successor certificate's own chain). On adoption: the revoked key
    /// joins the fence set, the successor becomes the primary certificate
    /// (the old primary retires), any held epoch attestation signed by the
    /// revoked key is dropped, cached items signed by the revoked key are
    /// retroactively purged, and the record is re-published for epidemic
    /// propagation (a `sys$rot:` row attribute plus the gossip rider).
    /// Returns whether the record was adopted.
    pub(super) fn adopt_rotation(&mut self, record: &RotationRecord) -> bool {
        let publisher = record.successor.claim("publisher").and_then(|v| v.parse().ok());
        let Some(publisher) = publisher.filter(|_| self.cfg.defenses).map(PublisherId) else {
            return false;
        };
        let trust = &mut self.trust;
        if trust.rotation_serials.get(&publisher).is_some_and(|&held| record.serial <= held) {
            return false;
        }
        if !self.registry.verify_rotation(record) {
            return false;
        }
        trust.rotation_serials.insert(publisher, record.serial);
        trust.revoked.insert((publisher, record.revoked));
        trust.alt_certs.remove(&(publisher, record.revoked));
        let primary = trust.publisher_certs.insert(publisher, record.successor.clone());
        if let Some(primary) = primary.filter(|cert| cert.key == record.revoked) {
            trust.retired_certs.insert(publisher, primary);
        }
        trust.authority.retain(|&p, attest| p != publisher || attest.key != record.revoked);
        let encoded = record.encode();
        let record = Arc::new(record.clone());
        trust.rotations.insert(publisher, Arc::clone(&record));
        trust.rotation_rider = Some(Arc::new(RotationRider::new(Arc::clone(&record), &encoded)));
        // Retroactive purge: items signed by the key are unverifiable
        // history and must not be served onward. Deliveries already made
        // and the seen-log stay — the oracle accounts the exposure window.
        let purged = self.cache.purge_signed_by(publisher, record.revoked);
        let id = self.agent.id();
        if purged > 0 {
            obs::metric_add!(id, ctr::NW_RETRO_PURGED_ITEMS, purged);
            obs::trace_event!(id, Layer::News, kind::RETRO_PURGE, u64::from(publisher.0), purged);
        }
        obs::metric_add!(id, ctr::CERT_REVOCATIONS_SEEN, 1);
        let serial = u64::from(record.serial);
        obs::trace_event!(id, Layer::News, kind::CERT_REVOKED, u64::from(publisher.0), serial);
        self.agent.set_local_attr(&format!("{ROT_ATTR_PREFIX}{}", publisher.0), encoded);
        self.rotation_adopted_at = Some(self.clock);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        node_with_authority, node_with_rotation, tech_item, tech_sub, Counts,
    };
    use super::*;
    use crate::config::NewsWireConfig;
    use crate::wire::{msg_id_of, SignedItem};
    use amcast::FilterSpec;
    use astrolabe::ZoneId;
    use newsml::Category;

    /// Where a case offers its article: the three admission sources and
    /// epoch attestations (admission path 5).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Via {
        Tree,
        Reconcile,
        Disk,
        Attest,
    }

    /// What a case offers: a genuine signature, an invented one, a genuine
    /// one over a tampered body, a genuine one by a revoked key, and an
    /// invented one to a node with `defenses` off.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Case {
        Genuine,
        Invented,
        Tampered,
        Revoked,
        DefensesOff,
    }

    /// The peer every network case hears from.
    const PEER: NodeId = NodeId(5);

    /// Every source against every kind of offer: the verdict, what reaches
    /// the cache, the article log and the application, the reject counters,
    /// and the misbehavior strike — taken for an invalid signature from the
    /// network only, never for a revoked key (the relay may be behind on the
    /// rotation) and never with `defenses` off.
    #[test]
    fn every_source_admits_through_one_funnel() {
        use Case::*;
        // (via, case) → (admitted, auth rejects, forged rejects, revoked
        // rejects, strike)
        let table = [
            (Via::Tree, Genuine, (true, 0, 0, 0, false)),
            (Via::Tree, Invented, (false, 1, 0, 0, true)),
            (Via::Tree, Tampered, (false, 1, 0, 0, true)),
            (Via::Tree, Revoked, (false, 0, 0, 1, false)),
            (Via::Tree, DefensesOff, (false, 1, 0, 0, false)),
            (Via::Reconcile, Genuine, (true, 0, 0, 0, false)),
            (Via::Reconcile, Invented, (false, 0, 1, 0, true)),
            (Via::Reconcile, Tampered, (false, 0, 1, 0, true)),
            (Via::Reconcile, Revoked, (false, 0, 0, 1, false)),
            (Via::Reconcile, DefensesOff, (true, 0, 0, 0, false)),
            (Via::Disk, Genuine, (true, 0, 0, 0, false)),
            (Via::Disk, Invented, (false, 0, 1, 0, false)),
            (Via::Disk, Tampered, (false, 0, 1, 0, false)),
            (Via::Disk, Revoked, (false, 0, 0, 1, false)),
            (Via::Disk, DefensesOff, (true, 0, 0, 0, false)),
            (Via::Attest, Genuine, (true, 0, 0, 0, false)),
            (Via::Attest, Invented, (false, 0, 0, 0, false)),
            (Via::Attest, Tampered, (false, 0, 0, 0, false)),
            (Via::Attest, Revoked, (false, 0, 0, 1, false)),
            (Via::Attest, DefensesOff, (false, 0, 0, 0, false)),
        ];
        let now = SimTime::from_secs(1);
        let root = ZoneId::root();
        for (via, case, (admitted, auth, forged, revoked, strike)) in table {
            let at = format!("{via:?} × {case:?}");
            let mut cfg = NewsWireConfig::tech_news();
            cfg.defenses = case != DefensesOff;
            let (mut n, cred, record, _) = node_with_rotation(cfg);
            n.set_subscription(tech_sub());
            if case == Revoked {
                assert!(n.adopt_rotation(&record), "{at}: the record adopts");
            }
            let counts = Counts::install(&n);
            let mut item = tech_item(1);
            let (key, sig) = match case {
                Genuine | Revoked | Tampered => (cred.key_id(), cred.sign(&item)),
                Invented | DefensesOff => (KeyId(99), Signature(77)),
            };
            if case == Tampered {
                item.headline = "FAKE: markets collapse".into();
            }
            let id = item.id;
            let verdict = match via {
                Via::Tree => {
                    let env = Envelope {
                        msg_id: msg_id_of(id),
                        filter: FilterSpec::All,
                        scope: root.clone(),
                        certificate: cred.certificate.clone(),
                        key,
                        signature: sig,
                        attest: cred.attest_epoch(0),
                        basis: None,
                        item: item.into(),
                    };
                    let source = Source::Tree { env: &env, from: PEER };
                    let verdict = n.admit(Arc::clone(&env.item), key, sig, source);
                    // A refused tree copy is counted where it is refused.
                    let refused = counts.of(&n, ctr::NW_AUTH_REJECTS);
                    assert_eq!(refused, auth, "{at}: the refused tree copy");
                    verdict.map(|admitted| n.handle_delivery(now, admitted, false)).is_some()
                }
                Via::Reconcile => {
                    let signed = SignedItem { item: item.into(), key, signature: sig, basis: None };
                    n.absorb_recovered(now, PEER, vec![signed]);
                    n.cache.contains(id)
                }
                Via::Disk => n.restore_items(vec![(item.into(), key, sig)], now) == 1,
                Via::Attest => {
                    let attest = match case {
                        Genuine | Revoked => cred.attest_epoch(3),
                        Tampered => EpochAttest { epoch: 3, ..cred.attest_epoch(2) },
                        Invented | DefensesOff => {
                            EpochAttest { publisher: PublisherId(0), epoch: 3, key, signature: sig }
                        }
                    };
                    n.absorb_attest(&attest);
                    n.trust.authority_epoch(PublisherId(0)) == Some(3)
                }
            };
            assert_eq!(verdict, admitted, "{at}: the verdict");
            let holds = admitted && via != Via::Attest;
            assert_eq!(n.cache.contains(id), holds, "{at}: the cache");
            assert_eq!(n.reconcile.logged(id), holds, "{at}: the article log");
            let delivered = holds && via != Via::Disk;
            assert_eq!(n.has_item(id), delivered, "{at}: the application");
            assert_eq!(counts.of(&n, ctr::NW_AUTH_REJECTS), auth, "{at}: auth rejects");
            assert_eq!(counts.of(&n, ctr::NW_FORGED_REJECTS), forged, "{at}: forged rejects");
            assert_eq!(counts.of(&n, ctr::NW_REVOKED_KEY_REJECTS), revoked, "{at}: revoked");
            let struck = strike.then_some(&MISBEHAVIOR_FORGED);
            assert_eq!(n.misbehavior.get(&PEER.0), struck, "{at}: the strike");
        }
    }

    /// A forged revision of a genuine story is refused, so it cannot fuse
    /// the real telling away.
    #[test]
    fn a_forged_revision_cannot_displace_the_real_story() {
        let (mut n, cred) = node_with_authority(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        let story = |seq: u64, revision: u32| {
            NewsItem::builder(PublisherId(0), seq)
                .headline("story")
                .slug("the-story")
                .revision(revision, None)
                .category(Category::Technology)
                .build()
        };
        let (rev0, fake) = (story(3, 0), story(4, 1));
        let signature = cred.sign(&rev0);
        let genuine =
            SignedItem { item: rev0.clone().into(), key: cred.key_id(), signature, basis: None };
        let forged = SignedItem {
            item: fake.clone().into(),
            key: KeyId(1),
            signature: Signature(2),
            basis: None,
        };
        n.absorb_recovered(now, PEER, vec![genuine, forged]);
        assert!(n.cache.contains(rev0.id), "the real revision 0 survives");
        assert!(!n.cache.contains(fake.id), "the forged revision is refused");
    }

    /// Adopting a rotation retires the old primary, installs the successor,
    /// retroactively purges what the revoked key signed and drops the
    /// authority it attested; the successor key is live at once.
    #[test]
    fn adopt_rotation_retires_the_key_and_purges_what_it_signed() {
        let (mut n, cred, record, successor) = node_with_rotation(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let counts = Counts::install(&n);
        let now = SimTime::from_secs(1);
        let signed = |cred: &crate::auth::PublisherCredential, item: &NewsItem| SignedItem {
            item: Arc::new(item.clone()),
            key: cred.key_id(),
            signature: cred.sign(item),
            basis: None,
        };
        // Before the revocation the compromised key IS the publisher's key:
        // what it signed admits (the exposure the oracle sanctions).
        let old = tech_item(0);
        n.absorb_recovered(now, PEER, vec![signed(&cred, &old)]);
        assert!(n.cache.contains(old.id));

        assert!(n.adopt_rotation(&record), "a genuine record adopts");
        assert!(n.rotation_adopted_at.is_some());
        assert_eq!(n.trust.publisher_certs[&PublisherId(0)].key, successor.key_id());
        assert_eq!(n.trust.retired_certs[&PublisherId(0)].key, cred.key_id());
        assert!(!n.cache.contains(old.id), "the retroactive purge scrubbed the item");
        assert_eq!(counts.of(&n, ctr::NW_RETRO_PURGED_ITEMS), 1);
        assert_eq!(n.trust.authority_epoch(PublisherId(0)), None, "revoked-key authority dropped");

        // The successor credential is live on every path.
        let fresh = tech_item(2);
        n.absorb_recovered(now, PEER, vec![signed(&successor, &fresh)]);
        assert!(n.cache.contains(fresh.id));
        n.absorb_attest(&successor.attest_epoch(1));
        assert_eq!(n.trust.authority_epoch(PublisherId(0)), Some(1));
    }

    /// The freshness fence: rotation serials are monotonic per publisher —
    /// an older (replayed) record cannot un-revoke a newer one, and a
    /// record never adopts twice.
    #[test]
    fn rotation_freshness_fence_never_unrevokes() {
        let (mut n, cred, older, _succ1) = node_with_rotation(NewsWireConfig::tech_news());
        // A second, newer rotation for the same revoked key (serial 2).
        let mut registry = astrolabe::TrustRegistry::new(1);
        let cred2 = crate::auth::issue_publisher(
            &mut registry,
            PublisherId(0),
            "slashdot",
            &astrolabe::ZoneId::root(),
            6000,
        );
        assert_eq!(cred2.certificate.key, cred.certificate.key, "issuance is deterministic");
        let claims = vec![
            ("publisher".to_owned(), "0".to_owned()),
            ("scope".to_owned(), astrolabe::ZoneId::root().to_string()),
            ("rate".to_owned(), "6000".to_owned()),
        ];
        let (newer, _) = registry.issue_rotation(
            "publisher:slashdot".to_owned(),
            cred2.certificate.key,
            0,
            2,
            {
                let mut c = claims.clone();
                c.push(("note".to_owned(), "second".to_owned()));
                c
            },
        );
        assert!(n.adopt_rotation(&newer), "the serial-2 record adopts");
        let primary = n.trust.publisher_certs[&PublisherId(0)].key;
        assert_eq!(primary, newer.successor.key);
        assert!(!n.adopt_rotation(&older), "a replayed older serial is a no-op");
        assert_eq!(n.trust.publisher_certs[&PublisherId(0)].key, primary, "primary unchanged");
        assert!(n.trust.key_revoked(PublisherId(0), cred.key_id()), "the key stays revoked");
        assert!(!n.adopt_rotation(&newer), "the same serial never adopts twice");
        assert_eq!(n.trust.rotation_serials[&PublisherId(0)], 2);
    }

    /// Served articles are the cache, entry for entry, and each one carries
    /// a proof that verifies against its publisher's trusted certificate —
    /// whatever relayed, fused, scoped out or turned away an article on the
    /// way. Two publishers revise their stories over a lossy WAN, and a few
    /// of the tellings are scoped to one zone.
    #[test]
    fn every_served_article_is_cached_and_verifies() {
        use crate::deploy::{DeploymentBuilder, PublisherSpec};
        use newsml::PublisherProfile;
        let mut d = DeploymentBuilder::new(40, 7)
            .branching(4)
            .wan(0.05)
            .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
            .publisher(PublisherSpec::global(PublisherProfile::boutique(
                PublisherId(1),
                "the-register",
                Category::Science,
            )))
            .build();
        d.settle(60);
        let scope = ZoneId::root().child(1);
        for seq in 0..24u64 {
            for (publisher, category) in [(0, Category::Technology), (1, Category::Science)] {
                let item = NewsItem::builder(PublisherId(publisher), seq)
                    .headline(format!("p{publisher} story {}", seq / 4))
                    .slug(format!("p{publisher}-story-{}", seq / 4))
                    .revision((seq % 4) as u32, None)
                    .category(category)
                    .build();
                let at = SimTime::from_micros(60_000_000 + 400_000 * seq);
                if seq % 5 == 4 {
                    d.publish_scoped(at, item, scope.clone());
                } else {
                    d.publish(at, item);
                }
            }
        }
        d.settle(40);
        let mut served = 0;
        for (id, node) in d.sim.iter() {
            let proofs = node.served_articles();
            assert_eq!(proofs.len(), node.cache.len(), "{id} serves its cache");
            for (item, key, sig) in proofs {
                let (key, sig) = (KeyId(key), Signature(sig));
                let cert = node.trust.cert_for(item.publisher, key).expect("a trusted certificate");
                let article = node.cache.get(item).expect("served from the cache");
                let genuine = verify_bare_item(&node.registry, cert, article, key, sig);
                assert!(genuine, "{id} serves {item} under a proof that does not verify");
            }
            served += node.cache.len();
        }
        assert!(served > 0, "workload sanity: articles were cached");
    }

    /// A bounded cache serves one proof per article it holds: what fusion,
    /// capacity eviction or an obsolete arrival keeps out keeps no proof.
    #[test]
    fn a_bounded_cache_serves_one_proof_per_article() {
        let mut cfg = NewsWireConfig::tech_news();
        cfg.cache.max_items = 8;
        let (mut n, cred) = node_with_authority(cfg);
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        let admit = |n: &mut NewsWireNode, item: NewsItem| {
            let signature = cred.sign(&item);
            let signed =
                SignedItem { item: item.into(), key: cred.key_id(), signature, basis: None };
            n.absorb_recovered(now, PEER, vec![signed]);
        };
        // Forty revisions of one story, newest last, then a stale one …
        let telling = |seq: u64, revision: u32| {
            NewsItem::builder(PublisherId(0), seq)
                .slug("running")
                .revision(revision, None)
                .category(Category::Technology)
                .build()
        };
        for rev in 0..40u32 {
            admit(&mut n, telling(u64::from(rev), rev));
        }
        admit(&mut n, telling(100, 3));
        assert_eq!(n.cache.len(), 1, "fusion keeps the newest telling only");
        assert_eq!(n.served_articles().len(), 1);
        // … then forty distinct stories through an eight-slot cache.
        for seq in 200..240 {
            admit(&mut n, tech_item(seq));
        }
        assert_eq!(n.cache.len(), 8);
        assert_eq!(n.served_articles().len(), 8, "every cached item still has its proof");
    }
}
