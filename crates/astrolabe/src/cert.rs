//! Simulated certificates.
//!
//! Paper §3 property 3: Astrolabe is "secure, through pervasive use of
//! certificates", and §8 requires publisher authentication. Real Astrolabe
//! used public-key certificates; this reproduction substitutes keyed-hash
//! MACs plus an in-simulation [`TrustRegistry`] standing in for the PKI
//! (see DESIGN.md, substitution 2). All the *flows* are preserved —
//! issuance by an authority, signing of rows and news items, verification,
//! and rejection of forged or tampered data — without a crypto dependency;
//! only the mathematical hardness is simulated.

use std::collections::BTreeMap;
use std::fmt;

use filters::fnv1a_seeded;
use simnet::splitmix64;

/// Public identifier of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub u64);

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{:016x}", self.0)
    }
}

/// A signing key (the holder's secret half).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    /// Public identifier.
    pub id: KeyId,
    secret: u64,
}

impl SecretKey {
    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(fnv1a_seeded(msg, self.secret))
    }
}

/// A detached signature over a byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub u64);

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig:{:016x}", self.0)
    }
}

/// A certificate binding a subject name and claims to a key, signed by the
/// registry's certification authority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject name (e.g. `publisher:reuters`).
    pub subject: String,
    /// The subject's key.
    pub key: KeyId,
    /// Free-form claims, e.g. allowed publish zones or rate limits.
    pub claims: Vec<(String, String)>,
    /// CA signature over the canonical encoding.
    pub ca_sig: Signature,
}

impl Certificate {
    fn canonical_bytes(subject: &str, key: KeyId, claims: &[(String, String)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(subject.as_bytes());
        out.push(0);
        out.extend_from_slice(&key.0.to_le_bytes());
        for (k, v) in claims {
            out.extend_from_slice(k.as_bytes());
            out.push(b'=');
            out.extend_from_slice(v.as_bytes());
            out.push(0);
        }
        out
    }

    /// Value of the claim named `name`.
    pub fn claim(&self, name: &str) -> Option<&str> {
        self.claims.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// A signed revocation/rotation record: the registry root declares one of
/// a subject's key-epochs revoked and endorses a successor certificate.
///
/// The record is self-contained — any node holding the CA's public key can
/// verify it offline — so it can propagate epidemically as a `sys$` MIB
/// row without consulting the registry. Freshness is fenced by `serial`:
/// a record only supersedes one with a strictly smaller serial, so a
/// replayed (older) revocation can never un-revoke a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationRecord {
    /// Subject whose key is rotated (e.g. `publisher:reuters`).
    pub subject: String,
    /// The revoked key.
    pub revoked: KeyId,
    /// Key-epoch of the revoked key.
    pub revoked_epoch: u32,
    /// Monotone rotation serial per subject; higher wins.
    pub serial: u32,
    /// CA-endorsed successor certificate (next key-epoch).
    pub successor: Certificate,
    /// CA signature over the canonical encoding of all fields above.
    pub ca_sig: Signature,
}

impl RotationRecord {
    fn canonical_bytes(
        subject: &str,
        revoked: KeyId,
        revoked_epoch: u32,
        serial: u32,
        successor: &Certificate,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        out.extend_from_slice(b"rot\0");
        out.extend_from_slice(subject.as_bytes());
        out.push(0);
        out.extend_from_slice(&revoked.0.to_le_bytes());
        out.extend_from_slice(&revoked_epoch.to_le_bytes());
        out.extend_from_slice(&serial.to_le_bytes());
        out.extend_from_slice(&Certificate::canonical_bytes(
            &successor.subject,
            successor.key,
            &successor.claims,
        ));
        out.extend_from_slice(&successor.ca_sig.0.to_le_bytes());
        out
    }

    /// Encodes the record as a printable string suitable for a MIB
    /// attribute value. Fields are `|`-separated; certificate claims are
    /// `;`-separated `k=v` pairs (none of the characters appear in the
    /// controlled subject/claim vocabulary).
    pub fn encode(&self) -> String {
        let claims: Vec<String> =
            self.successor.claims.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "rot1|{}|{:016x}|{}|{}|{}|{:016x}|{}|{:016x}|{:016x}",
            self.subject,
            self.revoked.0,
            self.revoked_epoch,
            self.serial,
            self.successor.subject,
            self.successor.key.0,
            claims.join(";"),
            self.successor.ca_sig.0,
            self.ca_sig.0,
        )
    }

    /// Decodes a record previously produced by [`RotationRecord::encode`].
    /// Returns `None` on any structural mismatch; signature validity is
    /// checked separately via [`TrustRegistry::verify_rotation`].
    pub fn decode(s: &str) -> Option<RotationRecord> {
        let parts: Vec<&str> = s.split('|').collect();
        if parts.len() != 10 || parts[0] != "rot1" {
            return None;
        }
        let revoked = KeyId(u64::from_str_radix(parts[2], 16).ok()?);
        let revoked_epoch: u32 = parts[3].parse().ok()?;
        let serial: u32 = parts[4].parse().ok()?;
        let succ_key = KeyId(u64::from_str_radix(parts[6], 16).ok()?);
        let mut claims = Vec::new();
        if !parts[7].is_empty() {
            for pair in parts[7].split(';') {
                let (k, v) = pair.split_once('=')?;
                claims.push((k.to_string(), v.to_string()));
            }
        }
        let succ_sig = Signature(u64::from_str_radix(parts[8], 16).ok()?);
        let ca_sig = Signature(u64::from_str_radix(parts[9], 16).ok()?);
        Some(RotationRecord {
            subject: parts[1].to_string(),
            revoked,
            revoked_epoch,
            serial,
            successor: Certificate {
                subject: parts[5].to_string(),
                key: succ_key,
                claims,
                ca_sig: succ_sig,
            },
            ca_sig,
        })
    }
}

/// The deployment's trust anchor: issues keys and certificates, verifies
/// signatures. Every node holds (a logical copy of) it, playing the role a
/// well-known CA public key plays in a real PKI.
#[derive(Debug, Clone)]
pub struct TrustRegistry {
    secrets: BTreeMap<KeyId, u64>,
    ca: SecretKey,
    counter: u64,
    seed: u64,
}

impl TrustRegistry {
    /// Creates a registry with a fresh CA key derived from `seed`.
    pub fn new(seed: u64) -> Self {
        let ca_secret = splitmix64(seed ^ 0xCA);
        let ca = SecretKey { id: KeyId(splitmix64(ca_secret)), secret: ca_secret };
        let mut secrets = BTreeMap::new();
        secrets.insert(ca.id, ca.secret);
        TrustRegistry { secrets, ca, counter: 0, seed }
    }

    /// The CA's public key id.
    pub fn ca_key(&self) -> KeyId {
        self.ca.id
    }

    /// Issues a fresh key pair and registers it for verification.
    pub fn issue_key(&mut self) -> SecretKey {
        self.counter += 1;
        let secret = splitmix64(self.seed ^ splitmix64(self.counter));
        let key = SecretKey { id: KeyId(splitmix64(secret ^ 0x5EC)), secret };
        self.secrets.insert(key.id, secret);
        key
    }

    /// Verifies `sig` over `msg` by the holder of `key`.
    pub fn verify(&self, key: KeyId, msg: &[u8], sig: Signature) -> bool {
        match self.secrets.get(&key) {
            Some(&secret) => fnv1a_seeded(msg, secret) == sig.0,
            None => false,
        }
    }

    /// Issues a CA-signed certificate for `subject` with the given claims.
    pub fn issue_certificate(
        &mut self,
        subject: impl Into<String>,
        claims: Vec<(String, String)>,
    ) -> (Certificate, SecretKey) {
        let subject = subject.into();
        let key = self.issue_key();
        let bytes = Certificate::canonical_bytes(&subject, key.id, &claims);
        let ca_sig = self.ca.sign(&bytes);
        (Certificate { subject, key: key.id, claims, ca_sig }, key)
    }

    /// Verifies a certificate's CA signature.
    pub fn verify_certificate(&self, cert: &Certificate) -> bool {
        let bytes = Certificate::canonical_bytes(&cert.subject, cert.key, &cert.claims);
        self.verify(self.ca.id, &bytes, cert.ca_sig)
    }

    /// Verifies `sig` over `msg` under a certificate in one step: the
    /// certificate must chain to the CA *and* the signature must verify
    /// under the certificate's key. A valid signature paired with a forged
    /// certificate (or vice versa) fails.
    pub fn verify_with_certificate(&self, cert: &Certificate, msg: &[u8], sig: Signature) -> bool {
        self.verify_certificate(cert) && self.verify(cert.key, msg, sig)
    }

    /// Hands the secret half of a registered key to the caller — the
    /// simulated equivalent of key theft. Only the fault injector calls
    /// this; defenses never do.
    pub fn exfiltrate_key(&self, key: KeyId) -> Option<SecretKey> {
        self.secrets.get(&key).map(|&secret| SecretKey { id: key, secret })
    }

    /// Issues a signed rotation record revoking `revoked` (epoch
    /// `revoked_epoch`) for `subject` and endorsing a fresh successor key
    /// at epoch `revoked_epoch + 1`. The successor certificate carries the
    /// subject's `claims` plus a `key-epoch` claim.
    pub fn issue_rotation(
        &mut self,
        subject: impl Into<String>,
        revoked: KeyId,
        revoked_epoch: u32,
        serial: u32,
        mut claims: Vec<(String, String)>,
    ) -> (RotationRecord, SecretKey) {
        let subject = subject.into();
        claims.push(("key-epoch".into(), (revoked_epoch + 1).to_string()));
        let (successor, key) = self.issue_certificate(subject.clone(), claims);
        let bytes =
            RotationRecord::canonical_bytes(&subject, revoked, revoked_epoch, serial, &successor);
        let ca_sig = self.ca.sign(&bytes);
        (RotationRecord { subject, revoked, revoked_epoch, serial, successor, ca_sig }, key)
    }

    /// Verifies a rotation record end to end: the CA signature over the
    /// record *and* the embedded successor certificate's own CA chain.
    pub fn verify_rotation(&self, rot: &RotationRecord) -> bool {
        let bytes = RotationRecord::canonical_bytes(
            &rot.subject,
            rot.revoked,
            rot.revoked_epoch,
            rot.serial,
            &rot.successor,
        );
        self.verify(self.ca.id, &bytes, rot.ca_sig)
            && self.verify_certificate(&rot.successor)
            && rot.successor.subject == rot.subject
    }

    /// Endorses node `id` for admission: a CA signature over the identity,
    /// published by the joiner as its join ticket.
    pub fn endorse_join(&self, id: u32) -> Signature {
        let mut msg = *b"join\0\0\0\0\0";
        msg[5..9].copy_from_slice(&id.to_le_bytes());
        self.ca.sign(&msg)
    }

    /// Verifies a join ticket for node `id`.
    pub fn verify_join(&self, id: u32, sig: Signature) -> bool {
        let mut msg = *b"join\0\0\0\0\0";
        msg[5..9].copy_from_slice(&id.to_le_bytes());
        self.verify(self.ca.id, &msg, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut reg = TrustRegistry::new(7);
        let key = reg.issue_key();
        let sig = key.sign(b"headline");
        assert!(reg.verify(key.id, b"headline", sig));
        assert!(!reg.verify(key.id, b"tampered", sig));
    }

    #[test]
    fn unknown_key_rejected() {
        let reg = TrustRegistry::new(7);
        assert!(!reg.verify(KeyId(42), b"x", Signature(0)));
    }

    #[test]
    fn forged_signature_rejected() {
        let mut reg = TrustRegistry::new(7);
        let key = reg.issue_key();
        let other = reg.issue_key();
        let sig = other.sign(b"msg"); // signed with the wrong key
        assert!(!reg.verify(key.id, b"msg", sig));
    }

    #[test]
    fn certificate_roundtrip_and_tamper() {
        let mut reg = TrustRegistry::new(9);
        let (cert, _key) = reg.issue_certificate(
            "publisher:reuters",
            vec![("zones".into(), "/".into()), ("rate".into(), "100".into())],
        );
        assert!(reg.verify_certificate(&cert));
        assert_eq!(cert.claim("rate"), Some("100"));
        assert_eq!(cert.claim("absent"), None);

        let mut tampered = cert.clone();
        tampered.claims[1].1 = "100000".into();
        assert!(!reg.verify_certificate(&tampered));

        let mut resubject = cert;
        resubject.subject = "publisher:mallory".into();
        assert!(!reg.verify_certificate(&resubject));
    }

    #[test]
    fn verify_with_certificate_needs_both_halves() {
        let mut reg = TrustRegistry::new(9);
        let (cert, key) = reg.issue_certificate("publisher:reuters", vec![]);
        let sig = key.sign(b"bulletin");
        assert!(reg.verify_with_certificate(&cert, b"bulletin", sig));
        assert!(!reg.verify_with_certificate(&cert, b"tampered", sig));
        let mut forged = cert.clone();
        forged.subject = "publisher:mallory".into();
        assert!(!reg.verify_with_certificate(&forged, b"bulletin", sig));
        let (other_cert, _) = reg.issue_certificate("publisher:other", vec![]);
        assert!(!reg.verify_with_certificate(&other_cert, b"bulletin", sig));
    }

    #[test]
    fn rotation_record_encode_decode_roundtrip() {
        let mut reg = TrustRegistry::new(11);
        let (cert, _key) = reg.issue_certificate(
            "publisher:reuters",
            vec![("zones".into(), "/".into()), ("key-epoch".into(), "1".into())],
        );
        let (rot, _succ) = reg.issue_rotation(
            "publisher:reuters",
            cert.key,
            1,
            1,
            vec![("zones".into(), "/".into())],
        );
        assert!(reg.verify_rotation(&rot));
        assert_eq!(rot.successor.claim("key-epoch"), Some("2"));

        let wire = rot.encode();
        let back = RotationRecord::decode(&wire).expect("decodes");
        assert_eq!(back, rot);
        assert!(reg.verify_rotation(&back));

        assert!(RotationRecord::decode("rot1|short").is_none());
        assert!(RotationRecord::decode(&wire.replace("rot1", "rot9")).is_none());
    }

    #[test]
    fn rotation_record_tamper_rejected() {
        let mut reg = TrustRegistry::new(12);
        let (cert, _key) = reg.issue_certificate("publisher:bbc", vec![]);
        let (rot, _succ) = reg.issue_rotation("publisher:bbc", cert.key, 1, 3, vec![]);

        // Bumping the serial (replay-protection field) breaks the CA sig.
        let mut stale = rot.clone();
        stale.serial = 99;
        assert!(!reg.verify_rotation(&stale));

        // Swapping in an attacker's "successor" cert breaks the chain even
        // if the outer signature were somehow accepted.
        let (mallory_cert, _) = reg.issue_certificate("publisher:mallory", vec![]);
        let mut hijacked = rot.clone();
        hijacked.successor = mallory_cert;
        assert!(!reg.verify_rotation(&hijacked));

        // A successor with a different subject is refused even when both
        // signatures individually verify.
        let (other_rot, _) = reg.issue_rotation("publisher:other", cert.key, 1, 3, vec![]);
        let mut cross = rot;
        cross.successor = other_rot.successor;
        assert!(!reg.verify_rotation(&cross));
    }

    #[test]
    fn exfiltrated_key_signs_like_the_original() {
        let mut reg = TrustRegistry::new(13);
        let key = reg.issue_key();
        let stolen = reg.exfiltrate_key(key.id).expect("registered");
        assert_eq!(stolen, key);
        assert!(reg.verify(key.id, b"forged", stolen.sign(b"forged")));
        assert!(reg.exfiltrate_key(KeyId(0xDEAD)).is_none());
    }

    #[test]
    fn join_tickets_bind_the_identity() {
        let reg = TrustRegistry::new(14);
        let t7 = reg.endorse_join(7);
        assert!(reg.verify_join(7, t7));
        assert!(!reg.verify_join(8, t7));
        assert!(!reg.verify_join(7, Signature(t7.0 ^ 1)));
        assert!(!TrustRegistry::new(15).verify_join(7, t7));
    }

    #[test]
    fn keys_are_distinct_and_deterministic() {
        let mut a = TrustRegistry::new(1);
        let mut b = TrustRegistry::new(1);
        assert_eq!(a.issue_key(), b.issue_key());
        assert_ne!(a.issue_key(), a.issue_key());
        assert_ne!(TrustRegistry::new(2).ca_key(), TrustRegistry::new(3).ca_key());
    }
}
