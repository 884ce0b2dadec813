//! Publisher authentication (paper §8).
//!
//! "News producers would download and run a different application capable
//! of publishing information according to a restrictive set of rules. These
//! restrictions are necessary to handle the authentication of publishers,
//! to assure the authenticity of the data they publish, and to perform flow
//! control."
//!
//! Built on the simulated certificate substrate in [`astrolabe`]: the
//! deployment's [`TrustRegistry`] (standing in for a PKI root) issues each
//! publisher a certificate carrying its id, allowed publish scope and rate
//! limit; every forwarder verifies item signatures before spending
//! forwarding work on them.

use astrolabe::{Certificate, KeyId, SecretKey, Signature, TrustRegistry, ZoneId};
use newsml::{NewsItem, PublisherId};

/// A publisher's signing credential: CA-issued certificate plus its key.
#[derive(Debug, Clone)]
pub struct PublisherCredential {
    /// The CA-signed certificate (public part).
    pub certificate: Certificate,
    key: SecretKey,
}

/// Canonical byte encoding of the signed portion of an item.
fn item_bytes(item: &NewsItem) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + item.headline.len());
    out.extend_from_slice(&item.id.publisher.0.to_le_bytes());
    out.extend_from_slice(&item.id.seq.to_le_bytes());
    out.extend_from_slice(&item.revision.to_le_bytes());
    out.extend_from_slice(item.headline.as_bytes());
    out.push(0);
    out.extend_from_slice(item.slug.as_bytes());
    out.push(item.urgency.level());
    for c in &item.categories {
        out.push(c.bit());
    }
    for (k, v) in &item.meta {
        out.extend_from_slice(k.as_bytes());
        out.push(b'=');
        out.extend_from_slice(v.as_bytes());
        out.push(0);
    }
    out
}

/// Canonical byte encoding of a signed epoch attestation (DESIGN §12): the
/// publisher's statement "my log is at epoch `e`", which the epoch fence
/// trusts over any unsigned neighbor consensus.
fn epoch_bytes(publisher: PublisherId, epoch: u32) -> [u8; 10] {
    let mut out = [0u8; 10];
    out[..4].copy_from_slice(b"ep$\0");
    out[4..6].copy_from_slice(&publisher.0.to_le_bytes());
    out[6..].copy_from_slice(&epoch.to_le_bytes());
    out
}

/// A publisher-signed epoch attestation. Carried on every envelope a
/// publisher emits and echoed in reconcile replies, so signed epoch
/// authority reaches every node that has ever heard from the publisher —
/// and a colluding zone majority voting a fabricated epoch has nothing to
/// show for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochAttest {
    /// The attesting publisher.
    pub publisher: PublisherId,
    /// The attested log epoch.
    pub epoch: u32,
    /// Signing key id.
    pub key: KeyId,
    /// Signature over the canonical `ep$` epoch byte encoding.
    pub signature: Signature,
}

impl EpochAttest {
    /// Simulated wire size: publisher + epoch + key + signature.
    pub fn wire_size(&self) -> usize {
        2 + 4 + 8 + 8
    }
}

/// Verifies an epoch attestation against the publisher's known certificate.
/// The certificate must be one already trusted for `attest.publisher` — an
/// attacker cannot smuggle authority by pairing a fabricated attestation
/// with its own (valid) certificate for a different publisher id.
pub fn verify_epoch_attest(
    registry: &TrustRegistry,
    cert: &Certificate,
    attest: &EpochAttest,
) -> bool {
    if cert.key != attest.key {
        return false;
    }
    match cert.claim("publisher").and_then(|v| v.parse::<u16>().ok()) {
        Some(p) if PublisherId(p) == attest.publisher => {}
        _ => return false,
    }
    registry.verify_with_certificate(
        cert,
        &epoch_bytes(attest.publisher, attest.epoch),
        attest.signature,
    )
}

impl PublisherCredential {
    /// Assembles a credential from a certificate and its secret key.
    ///
    /// Two callers: the deployment builder pairing a rotation record's
    /// successor certificate with its key, and the fault engine pairing a
    /// publisher's real certificate with a key *stolen* from the registry
    /// (the signatures it produces are indistinguishable from the
    /// publisher's own — that is the attack).
    pub fn from_parts(certificate: Certificate, key: SecretKey) -> Self {
        PublisherCredential { certificate, key }
    }

    /// The publisher id bound into the certificate.
    ///
    /// # Panics
    ///
    /// Panics if the certificate lacks a valid `publisher` claim (cannot
    /// happen for certificates issued by [`issue_publisher`]).
    pub fn publisher(&self) -> PublisherId {
        PublisherId(
            self.certificate
                .claim("publisher")
                .and_then(|v| v.parse().ok())
                .expect("certificate carries a publisher claim"),
        )
    }

    /// Signs an item.
    pub fn sign(&self, item: &NewsItem) -> Signature {
        self.key.sign(&item_bytes(item))
    }

    /// The key id forwarders verify against.
    pub fn key_id(&self) -> KeyId {
        self.key.id
    }

    /// Signs an epoch attestation for the publisher's current log epoch.
    pub fn attest_epoch(&self, epoch: u32) -> EpochAttest {
        let publisher = self.publisher();
        EpochAttest {
            publisher,
            epoch,
            key: self.key.id,
            signature: self.key.sign(&epoch_bytes(publisher, epoch)),
        }
    }
}

/// Issues a publisher certificate binding `publisher` to a publish `scope`
/// and a flow-control rate (items/minute).
pub fn issue_publisher(
    registry: &mut TrustRegistry,
    publisher: PublisherId,
    name: &str,
    scope: &ZoneId,
    rate_per_min: u32,
) -> PublisherCredential {
    let claims = vec![
        ("publisher".to_owned(), publisher.0.to_string()),
        ("scope".to_owned(), scope.to_string()),
        ("rate".to_owned(), rate_per_min.to_string()),
    ];
    let (certificate, key) = registry.issue_certificate(format!("publisher:{name}"), claims);
    PublisherCredential { certificate, key }
}

/// Forwarder-side verification of a signed item.
///
/// Checks, in order: the certificate chains to the CA, the certificate's
/// publisher claim matches the item's publisher, the publish scope covers
/// `scope`, and the signature covers the item bytes.
pub fn verify_item(
    registry: &TrustRegistry,
    cert: &Certificate,
    item: &NewsItem,
    scope: &ZoneId,
    key: KeyId,
    sig: Signature,
) -> bool {
    if !registry.verify_certificate(cert) {
        return false;
    }
    if cert.key != key {
        return false;
    }
    match cert.claim("publisher").and_then(|v| v.parse::<u16>().ok()) {
        Some(p) if PublisherId(p) == item.id.publisher => {}
        _ => return false,
    }
    match cert.claim("scope").map(parse_zone) {
        Some(Some(allowed)) if allowed.is_ancestor_of(scope) => {}
        _ => return false,
    }
    registry.verify(key, &item_bytes(item), sig)
}

/// Verification for *bare* items — the admission sources that carry no
/// envelope: anti-entropy reconcile replies and stable-storage restores.
/// Same chain as [`verify_item`] minus the envelope-scope clause: a bare
/// item carries no routing scope to check, and `dissemination_admits`
/// independently re-checks the §8 `ds$scope` embedded in the item before a
/// reconcile reply's article is cached, so a bare item cannot launder
/// itself out of zone.
pub fn verify_bare_item(
    registry: &TrustRegistry,
    cert: &Certificate,
    item: &NewsItem,
    key: KeyId,
    sig: Signature,
) -> bool {
    if cert.key != key {
        return false;
    }
    match cert.claim("publisher").and_then(|v| v.parse::<u16>().ok()) {
        Some(p) if PublisherId(p) == item.id.publisher => {}
        _ => return false,
    }
    registry.verify_with_certificate(cert, &item_bytes(item), sig)
}

/// Parses the `/a/b` zone syntax used in certificate claims.
fn parse_zone(s: &str) -> Option<ZoneId> {
    if s == "/" {
        return Some(ZoneId::root());
    }
    let path: Result<Vec<u16>, _> =
        s.strip_prefix('/')?.split('/').map(|p| p.parse::<u16>()).collect();
    path.ok().map(ZoneId::from_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use newsml::Category;

    fn item() -> NewsItem {
        NewsItem::builder(PublisherId(4), 9)
            .headline("Signed story")
            .category(Category::World)
            .build()
    }

    fn setup() -> (TrustRegistry, PublisherCredential) {
        let mut reg = TrustRegistry::new(5);
        let cred = issue_publisher(&mut reg, PublisherId(4), "reuters", &ZoneId::root(), 600);
        (reg, cred)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (reg, cred) = setup();
        let it = item();
        let sig = cred.sign(&it);
        assert!(verify_item(&reg, &cred.certificate, &it, &ZoneId::root(), cred.key_id(), sig));
        assert_eq!(cred.publisher(), PublisherId(4));
    }

    #[test]
    fn tampered_item_rejected() {
        let (reg, cred) = setup();
        let it = item();
        let sig = cred.sign(&it);
        let mut tampered = it.clone();
        tampered.headline = "FAKE: markets collapse".into();
        assert!(!verify_item(
            &reg,
            &cred.certificate,
            &tampered,
            &ZoneId::root(),
            cred.key_id(),
            sig
        ));
    }

    #[test]
    fn wrong_publisher_claim_rejected() {
        let (mut reg, _cred) = setup();
        // Mallory holds a valid certificate for publisher 9 but publishes
        // items claiming to be publisher 4.
        let mallory = issue_publisher(&mut reg, PublisherId(9), "mallory", &ZoneId::root(), 600);
        let it = item(); // publisher 4
        let sig = mallory.sign(&it);
        assert!(!verify_item(
            &reg,
            &mallory.certificate,
            &it,
            &ZoneId::root(),
            mallory.key_id(),
            sig
        ));
    }

    #[test]
    fn scope_restriction_enforced() {
        let mut reg = TrustRegistry::new(6);
        let asia = ZoneId::root().child(2);
        let cred = issue_publisher(&mut reg, PublisherId(4), "regional", &asia, 60);
        let it = item();
        let sig = cred.sign(&it);
        assert!(verify_item(&reg, &cred.certificate, &it, &asia, cred.key_id(), sig));
        assert!(verify_item(&reg, &cred.certificate, &it, &asia.child(3), cred.key_id(), sig));
        assert!(
            !verify_item(&reg, &cred.certificate, &it, &ZoneId::root(), cred.key_id(), sig),
            "regional publisher must not publish globally"
        );
    }

    #[test]
    fn foreign_registry_rejected() {
        let (_, cred) = setup();
        let other_reg = TrustRegistry::new(999);
        let it = item();
        let sig = cred.sign(&it);
        assert!(!verify_item(
            &other_reg,
            &cred.certificate,
            &it,
            &ZoneId::root(),
            cred.key_id(),
            sig
        ));
    }

    #[test]
    fn bare_item_verification_ignores_scope_but_nothing_else() {
        let mut reg = TrustRegistry::new(6);
        let asia = ZoneId::root().child(2);
        let cred = issue_publisher(&mut reg, PublisherId(4), "regional", &asia, 60);
        let it = item();
        let sig = cred.sign(&it);
        // A bare item has no envelope scope to check…
        assert!(verify_bare_item(&reg, &cred.certificate, &it, cred.key_id(), sig));
        // …but tampering, key mismatch, and impersonation still fail.
        let mut tampered = it.clone();
        tampered.headline = "FORGED".into();
        assert!(!verify_bare_item(&reg, &cred.certificate, &tampered, cred.key_id(), sig));
        assert!(!verify_bare_item(&reg, &cred.certificate, &it, KeyId(0), sig));
        let mallory = issue_publisher(&mut reg, PublisherId(9), "mallory", &ZoneId::root(), 60);
        let msig = mallory.sign(&it);
        assert!(!verify_bare_item(&reg, &mallory.certificate, &it, mallory.key_id(), msig));
    }

    #[test]
    fn epoch_attest_roundtrip_and_forgery() {
        let (reg, cred) = setup();
        let attest = cred.attest_epoch(3);
        assert_eq!(attest.publisher, PublisherId(4));
        assert!(verify_epoch_attest(&reg, &cred.certificate, &attest));
        // Raising the claimed epoch without re-signing fails.
        let bumped = EpochAttest { epoch: 100, ..attest };
        assert!(!verify_epoch_attest(&reg, &cred.certificate, &bumped));
        // An attestation for publisher 4 cannot ride Mallory's certificate.
        let mut reg2 = TrustRegistry::new(5);
        let _ = issue_publisher(&mut reg2, PublisherId(4), "reuters", &ZoneId::root(), 600);
        let mallory = issue_publisher(&mut reg2, PublisherId(9), "mallory", &ZoneId::root(), 600);
        let forged = EpochAttest {
            publisher: PublisherId(4),
            epoch: 100,
            key: mallory.key_id(),
            signature: mallory.key.sign(&epoch_bytes(PublisherId(4), 100)),
        };
        assert!(!verify_epoch_attest(&reg2, &mallory.certificate, &forged));
    }

    #[test]
    fn zone_claim_parsing() {
        assert_eq!(parse_zone("/"), Some(ZoneId::root()));
        assert_eq!(parse_zone("/3/7"), Some(ZoneId::root().child(3).child(7)));
        assert_eq!(parse_zone("bogus"), None);
        assert_eq!(parse_zone("/x"), None);
    }
}
