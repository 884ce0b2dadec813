//! Simulated per-node stable storage and the restart-mode taxonomy.
//!
//! The crash model used to be a pure "process freeze": a down node kept all
//! volatile state and resumed where it left off. Real deployments recover
//! from *disk* — or from nothing — so the engine now gives every node a
//! [`Disk`]: a key→bytes store with an explicit write buffer. `write` is
//! cheap and volatile; only [`Disk::fsync`] moves buffered writes to the
//! durable area. A crash loses every unsynced write — the standard failure
//! model for write-behind storage.
//!
//! [`RestartMode`] names what a recovering node gets back:
//!
//! - [`RestartMode::Freeze`] — today's legacy behavior: volatile state
//!   survives the outage untouched. The disk is untouched too.
//! - [`RestartMode::ColdDurable`] — volatile state is gone; whatever was
//!   fsynced to the disk survives.
//! - [`RestartMode::ColdAmnesia`] — everything is gone, disk included. The
//!   node rejoins as if newly installed.

use std::collections::BTreeMap;

/// What a node gets back when it recovers from a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RestartMode {
    /// Process freeze: all volatile state survives (legacy default).
    #[default]
    Freeze,
    /// Cold restart from stable storage: volatile state wiped, disk intact.
    ColdDurable,
    /// Cold restart from nothing: volatile state and disk both wiped.
    ColdAmnesia,
}

impl RestartMode {
    /// Stable numeric discriminant for trace records (0/1/2).
    pub fn discriminant(self) -> u64 {
        match self {
            RestartMode::Freeze => 0,
            RestartMode::ColdDurable => 1,
            RestartMode::ColdAmnesia => 2,
        }
    }

    /// Stable lowercase name (used in tables and exports).
    pub fn name(self) -> &'static str {
        match self {
            RestartMode::Freeze => "freeze",
            RestartMode::ColdDurable => "cold_durable",
            RestartMode::ColdAmnesia => "cold_amnesia",
        }
    }
}

impl std::fmt::Display for RestartMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Simulated stable storage: a key→bytes store with write-behind semantics.
///
/// Writes land in an ordered buffer; [`Disk::fsync`] makes them durable.
/// Reads see buffered writes (read-your-writes), mirroring an OS page
/// cache. [`Disk::crash`] applies the crash failure model: every unsynced
/// write vanishes.
#[derive(Debug, Clone, Default)]
pub struct Disk {
    durable: BTreeMap<String, Vec<u8>>,
    /// Unsynced writes, oldest first.
    pending: Vec<(String, Vec<u8>)>,
    writes: u64,
    lost: u64,
}

impl Disk {
    /// An empty disk.
    pub const fn new() -> Self {
        Disk { durable: BTreeMap::new(), pending: Vec::new(), writes: 0, lost: 0 }
    }

    /// Buffers a write of `bytes` under `key`. Not durable until
    /// [`Disk::fsync`].
    pub fn write(&mut self, key: impl Into<String>, bytes: Vec<u8>) {
        self.pending.push((key.into(), bytes));
        self.writes += 1;
    }

    /// Flushes all buffered writes to the durable area, in write order.
    pub fn fsync(&mut self) {
        for (key, bytes) in self.pending.drain(..) {
            self.durable.insert(key, bytes);
        }
    }

    /// The current value of `key`, seeing buffered writes first
    /// (read-your-writes).
    pub fn read(&self, key: &str) -> Option<&[u8]> {
        self.pending
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
            .or_else(|| self.durable.get(key).map(Vec::as_slice))
    }

    /// Applies the crash failure model: every buffered write is lost and
    /// the durable area is what the last fsync left. Returns how many
    /// writes were lost.
    pub fn crash(&mut self) -> usize {
        let lost = self.pending.len();
        self.pending.clear();
        self.lost += lost as u64;
        lost
    }

    /// Flips `flips` random bits across the stored values — torn state, the
    /// adversarial complement of [`Disk::crash`]'s *lost* state. Buffered
    /// writes are torn too (the page cache is memory like any other).
    /// Deterministic for a given `rng` state: targets are drawn over the
    /// `BTreeMap`'s stable iteration order. Returns how many bits were
    /// actually flipped (zero on an empty disk).
    pub fn corrupt(&mut self, rng: &mut rand::rngs::SmallRng, flips: u32) -> u64 {
        use rand::Rng;
        let mut targets: Vec<&mut Vec<u8>> = self
            .durable
            .values_mut()
            .chain(self.pending.iter_mut().map(|(_, v)| v))
            .filter(|v| !v.is_empty())
            .collect();
        if targets.is_empty() {
            return 0;
        }
        let mut flipped = 0u64;
        for _ in 0..flips {
            let t = rng.gen_range(0..targets.len());
            let buf = &mut targets[t];
            let byte = rng.gen_range(0..buf.len());
            let bit = rng.gen_range(0..8u8);
            buf[byte] ^= 1 << bit;
            flipped += 1;
        }
        flipped
    }

    /// Erases everything — durable area, buffer, and counters stay; the
    /// data is gone (the `ColdAmnesia` model).
    pub fn wipe(&mut self) {
        self.durable.clear();
        self.pending.clear();
    }

    /// Number of durable keys (buffered-only keys not counted).
    pub fn len(&self) -> usize {
        self.durable.len()
    }

    /// True when the disk holds nothing, buffered or durable.
    pub fn is_empty(&self) -> bool {
        self.durable.is_empty() && self.pending.is_empty()
    }

    /// Unsynced writes currently buffered.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// Total writes buffered over the disk's lifetime.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Total writes lost to crashes over the disk's lifetime.
    pub fn total_lost(&self) -> u64 {
        self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes_before_fsync() {
        let mut d = Disk::new();
        d.write("a", b"one".to_vec());
        assert_eq!(d.read("a"), Some(&b"one"[..]), "buffered write visible");
        assert_eq!(d.len(), 0, "not durable yet");
        d.write("a", b"two".to_vec());
        assert_eq!(d.read("a"), Some(&b"two"[..]), "newest buffered wins");
        d.fsync();
        assert_eq!(d.read("a"), Some(&b"two"[..]));
        assert_eq!(d.len(), 1);
        assert_eq!(d.pending_writes(), 0);
    }

    #[test]
    fn crash_losing_everything_keeps_last_fsync() {
        let mut d = Disk::new();
        d.write("k", b"durable".to_vec());
        d.fsync();
        d.write("k", b"volatile".to_vec());
        d.write("l", b"w1".to_vec());
        d.write("k", b"newer".to_vec());
        assert_eq!(d.crash(), 3);
        assert_eq!(d.read("k"), Some(&b"durable"[..]));
        assert_eq!(d.read("l"), None);
        assert_eq!((d.pending_writes(), d.total_lost()), (0, 3));
    }

    #[test]
    fn wipe_erases_all_state() {
        let mut d = Disk::new();
        d.write("k", b"v".to_vec());
        d.fsync();
        d.write("l", b"w".to_vec());
        d.wipe();
        assert!(d.is_empty());
        assert_eq!(d.read("k"), None);
        assert_eq!(d.read("l"), None);
    }

    #[test]
    fn corrupt_flips_bits_deterministically() {
        let build = || {
            let mut d = Disk::new();
            d.write("a", vec![0u8; 16]);
            d.fsync();
            d.write("b", vec![0u8; 16]);
            d
        };
        let (mut d1, mut d2) = (build(), build());
        let mut r1 = crate::rng::fork(7, 3);
        let mut r2 = crate::rng::fork(7, 3);
        assert_eq!(d1.corrupt(&mut r1, 5), 5);
        assert_eq!(d2.corrupt(&mut r2, 5), 5);
        assert_eq!(d1.read("a"), d2.read("a"), "same rng, same torn bytes");
        assert_eq!(d1.read("b"), d2.read("b"));
        let torn = d1.read("a") != Some(&[0u8; 16][..]) || d1.read("b") != Some(&[0u8; 16][..]);
        assert!(torn, "five flips must tear something");
        // An empty disk has nothing to tear.
        assert_eq!(Disk::new().corrupt(&mut r1, 3), 0);
    }

    #[test]
    fn restart_mode_names_and_discriminants() {
        assert_eq!(RestartMode::default(), RestartMode::Freeze);
        for (m, d, n) in [
            (RestartMode::Freeze, 0, "freeze"),
            (RestartMode::ColdDurable, 1, "cold_durable"),
            (RestartMode::ColdAmnesia, 2, "cold_amnesia"),
        ] {
            assert_eq!(m.discriminant(), d);
            assert_eq!(m.name(), n);
            assert_eq!(m.to_string(), n);
        }
    }
}
