//! The end-system message cache (paper §9).
//!
//! "At the end system the news items are delivered to a message cache,
//! which … feeds the applications that use the news items. Automatic cache
//! management can be configured to provide item management based on the
//! metadata of the news items, which includes information about item
//! revision history. On the basis of this metadata, the news item can be
//! garbage collected, or fused or aggregated into a more compact form. The
//! same cache is used for assisting in achieving end-to-end reliability in
//! the case of forwarding node failures, and for a limited state transfer
//! to participants that are joining the system."

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use astrolabe::{KeyId, Signature};
use newsml::cdc::slug_key;
use newsml::{ItemId, NewsItem, PublisherId};
use simnet::{SimDuration, SimTime};

/// The detached `(key, signature)` that vouches for a cached article, served
/// with it so that a receiver can verify in turn.
pub(crate) type Proof = (KeyId, Signature);

/// The proof of an article nobody signed: what [`MessageCache::insert`]
/// stores, and what every defended receiver refuses.
pub(crate) const UNSIGNED: Proof = (KeyId(0), Signature(0));

/// Result of offering an item to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// First sighting; stored.
    Stored,
    /// Already cached.
    Duplicate,
    /// Stored, and an older revision of the same story was fused away.
    Fused,
    /// Rejected: a newer revision of this story is already cached.
    Obsolete,
}

/// Cache limits.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Maximum items retained.
    pub max_items: usize,
    /// Items older than this are garbage-collected.
    pub max_age: SimDuration,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy { max_items: 10_000, max_age: SimDuration::from_secs(24 * 3600) }
    }
}

/// The per-node news-item cache.
///
/// Articles are immutable and shared: the cache holds a handle to the one
/// allocation the publisher (or a disk restore) made, and every reply it
/// serves clones the handle, never the strings. Each entry keeps the
/// article's arrival time and its `(key, signature)` proof, so a signature
/// lives exactly as long as the article it vouches for.
#[derive(Debug)]
pub struct MessageCache {
    policy: CachePolicy,
    items: BTreeMap<ItemId, (Arc<NewsItem>, SimTime, Proof)>,
    /// Latest cached revision per story, keyed by [`slug_key`] — a 64-bit
    /// hash of `(publisher, slug)`, so neither an entry nor a lookup owns a
    /// `String`. Every hit is confirmed against the cached item's slug.
    latest_by_slug: HashMap<u64, ItemId>,
    /// Lower bound on the arrival time of every cached item: while it is
    /// younger than `max_age` there is nothing for [`Self::gc`] to scan for.
    oldest: SimTime,
}

impl MessageCache {
    /// Creates an empty cache under `policy`.
    pub fn new(policy: CachePolicy) -> Self {
        MessageCache {
            policy,
            items: BTreeMap::new(),
            latest_by_slug: HashMap::new(),
            oldest: SimTime::MAX,
        }
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `id` is currently cached.
    pub fn contains(&self, id: ItemId) -> bool {
        self.items.contains_key(&id)
    }

    /// A cached item by id.
    pub fn get(&self, id: ItemId) -> Option<&Arc<NewsItem>> {
        self.items.get(&id).map(|(item, ..)| item)
    }

    /// A cached item by id, with its proof.
    pub(crate) fn get_signed(&self, id: ItemId) -> Option<(&Arc<NewsItem>, Proof)> {
        self.items.get(&id).map(|(item, _, proof)| (item, *proof))
    }

    /// The latest cached revision of `publisher`'s story `slug`, if any
    /// (the delta-encoding baseline lookup).
    pub fn latest_for_slug(&self, publisher: PublisherId, slug: &str) -> Option<&NewsItem> {
        self.latest_at(slug_key(publisher, slug), publisher, slug)
    }

    /// [`Self::latest_for_slug`] with the story's `slug_key` already in hand.
    fn latest_at(&self, key: u64, publisher: PublisherId, slug: &str) -> Option<&NewsItem> {
        let item = self.get(*self.latest_by_slug.get(&key)?)?;
        // A colliding key is a different story, not an earlier telling.
        (item.id.publisher == publisher && item.slug == slug).then_some(&**item)
    }

    /// Baseline hints for the revisions of `publisher`'s stories this cache
    /// holds — what a reconcile requester declares so the responder can
    /// delta-encode its reply. Sorted by key (the backing map iterates in
    /// arbitrary order) and capped at `cap` so the request stays small.
    pub fn baselines(&self, publisher: PublisherId, cap: usize) -> Vec<amcast::BaselineHint> {
        let mut hints: Vec<amcast::BaselineHint> = self
            .latest_by_slug
            .iter()
            .filter_map(|(&key, id)| self.get(*id).map(|item| (key, item)))
            .filter(|(_, item)| item.id.publisher == publisher)
            .map(|(key, item)| amcast::BaselineHint {
                key,
                revision: item.revision,
                body_len: item.body_len,
            })
            .collect();
        hints.sort_by_key(|h| h.key);
        hints.truncate(cap);
        hints
    }

    /// Offers an unsigned item to the cache, applying revision fusion.
    /// Accepts an owned item (allocating its one shared copy) or an existing
    /// handle. A node admits what it caches, and inserts through its
    /// admission funnel only (DESIGN §12).
    pub fn insert(&mut self, item: impl Into<Arc<NewsItem>>, now: SimTime) -> CacheOutcome {
        self.insert_signed(item.into(), UNSIGNED, now)
    }

    /// Offers an item with its proof to the cache, applying revision fusion
    /// and then the capacity bound.
    pub(crate) fn insert_signed(
        &mut self,
        item: Arc<NewsItem>,
        proof: Proof,
        now: SimTime,
    ) -> CacheOutcome {
        if self.items.contains_key(&item.id) {
            return CacheOutcome::Duplicate;
        }
        let mut outcome = CacheOutcome::Stored;
        let key = slug_key(item.id.publisher, &item.slug);
        let prev = self.latest_at(key, item.id.publisher, &item.slug);
        if let Some((prev_id, prev_revision)) = prev.map(|p| (p.id, p.revision)) {
            if prev_revision >= item.revision {
                // We already hold a newer (or equal) telling of this
                // story; keep it and drop the stale revision.
                return CacheOutcome::Obsolete;
            }
            // Fuse: the new revision replaces the old one.
            self.items.remove(&prev_id);
            outcome = CacheOutcome::Fused;
        }
        self.latest_by_slug.insert(key, item.id);
        self.items.insert(item.id, (item, now, proof));
        self.oldest = self.oldest.min(now);
        if self.items.len() > self.policy.max_items {
            // Evict the oldest-received item (one insert grows the cache
            // by at most one).
            let victim = self
                .items
                .iter()
                .min_by_key(|(_, (_, at, _))| *at)
                .map(|(&id, _)| id)
                .expect("non-empty");
            self.remove(victim);
        }
        outcome
    }

    fn remove(&mut self, id: ItemId) {
        if let Some((item, ..)) = self.items.remove(&id) {
            let key = slug_key(item.id.publisher, &item.slug);
            if self.latest_by_slug.get(&key) == Some(&id) {
                self.latest_by_slug.remove(&key);
            }
        }
    }

    /// Evicts `id` unconditionally, bypassing policy. Used by the
    /// trust-root rotation retroactive purge (DESIGN §15): items admitted
    /// under a key that has since been revoked are unverifiable history and
    /// must not be served to repair or reconcile peers. Returns whether the
    /// item was present.
    pub fn purge(&mut self, id: ItemId) -> bool {
        let present = self.items.contains_key(&id);
        self.remove(id);
        present
    }

    /// Purges every item `publisher` signed under `key`; returns how many.
    pub(crate) fn purge_signed_by(&mut self, publisher: PublisherId, key: KeyId) -> u64 {
        let victims: Vec<ItemId> = self
            .items
            .iter()
            .filter(|(id, (.., (signer, _)))| id.publisher == publisher && *signer == key)
            .map(|(&id, _)| id)
            .collect();
        victims.into_iter().map(|id| u64::from(self.purge(id))).sum()
    }

    /// Garbage-collects items older than the policy's `max_age`.
    /// Returns how many were collected.
    pub fn gc(&mut self, now: SimTime) -> usize {
        let cutoff = now.as_micros().saturating_sub(self.policy.max_age.as_micros());
        if self.oldest.as_micros() >= cutoff {
            return 0;
        }
        let victims: Vec<ItemId> = self
            .items
            .iter()
            .filter(|(_, (_, at, _))| at.as_micros() < cutoff)
            .map(|(&id, _)| id)
            .collect();
        let n = victims.len();
        for v in victims {
            self.remove(v);
        }
        self.oldest = self.items.values().map(|(_, at, _)| *at).min().unwrap_or(SimTime::MAX);
        n
    }

    /// The most recent `limit` items across publishers (the XML-RPC
    /// `newswire.latest` feed).
    pub fn snapshot(&self, limit: usize) -> Vec<Arc<NewsItem>> {
        let mut all: Vec<(&SimTime, &Arc<NewsItem>)> =
            self.items.values().map(|(item, at, _)| (at, item)).collect();
        all.sort_by_key(|(at, _)| std::cmp::Reverse(**at));
        all.into_iter().take(limit).map(|(_, item)| Arc::clone(item)).collect()
    }

    /// Iterates over cached items.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<NewsItem>> {
        self.items.values().map(|(item, ..)| item)
    }

    /// Iterates over cached items with their proofs, in id order.
    pub(crate) fn iter_signed(&self) -> impl Iterator<Item = (&Arc<NewsItem>, Proof)> {
        self.items.values().map(|(item, _, proof)| (item, *proof))
    }
}

impl Default for MessageCache {
    fn default() -> Self {
        MessageCache::new(CachePolicy::default())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unit tests of the cache itself
mod tests {
    use super::*;
    use newsml::NewsItem;

    fn item(publ: u16, seq: u64, slug: &str, rev: u32) -> NewsItem {
        NewsItem::builder(PublisherId(publ), seq)
            .headline(format!("story {slug}"))
            .slug(slug)
            .revision(rev, None)
            .build()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn insert_and_duplicate() {
        let mut c = MessageCache::default();
        assert_eq!(c.insert(item(1, 1, "a", 0), t(0)), CacheOutcome::Stored);
        assert_eq!(c.insert(item(1, 1, "a", 0), t(1)), CacheOutcome::Duplicate);
        assert_eq!(c.len(), 1);
        let id = ItemId::new(PublisherId(1), 1);
        assert_eq!(c.get_signed(id).map(|(_, proof)| proof), Some(UNSIGNED));
    }

    #[test]
    fn revision_fusion_keeps_latest() {
        let mut c = MessageCache::default();
        c.insert(item(1, 1, "story", 0), t(0));
        assert_eq!(c.insert(item(1, 5, "story", 2), t(1)), CacheOutcome::Fused);
        assert_eq!(c.len(), 1, "old revision fused away");
        assert!(!c.contains(ItemId::new(PublisherId(1), 1)));
        assert!(c.contains(ItemId::new(PublisherId(1), 5)));
        // A late-arriving older revision is rejected.
        assert_eq!(c.insert(item(1, 3, "story", 1), t(2)), CacheOutcome::Obsolete);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_received() {
        let mut c = MessageCache::new(CachePolicy { max_items: 3, ..Default::default() });
        for i in 0..5u64 {
            c.insert(item(1, i, &format!("s{i}"), 0), t(i));
            let evicted = i.checked_sub(3).map(|old| ItemId::new(PublisherId(1), old));
            assert!(evicted.is_none_or(|old| !c.contains(old)), "seq {i} evicts the oldest");
        }
        assert_eq!(c.len(), 3);
        assert!(!c.contains(ItemId::new(PublisherId(1), 0)));
        assert!(c.contains(ItemId::new(PublisherId(1), 4)));
    }

    #[test]
    fn gc_by_age() {
        let mut c = MessageCache::new(CachePolicy {
            max_age: SimDuration::from_secs(100),
            ..Default::default()
        });
        c.insert(item(1, 1, "old", 0), t(0));
        c.insert(item(1, 2, "new", 0), t(90));
        assert_eq!(c.gc(t(120)), 1);
        assert!(!c.contains(ItemId::new(PublisherId(1), 1)));
        assert!(c.contains(ItemId::new(PublisherId(1), 2)));
    }

    #[test]
    fn gc_early_out_still_evicts_once_an_item_ages() {
        let mut c = MessageCache::new(CachePolicy {
            max_age: SimDuration::from_secs(100),
            ..Default::default()
        });
        c.insert(item(1, 1, "old", 0), t(10));
        c.insert(item(1, 2, "new", 0), t(90));
        // Nothing is old enough yet: these ticks return without a scan.
        assert_eq!(c.gc(t(50)), 0);
        assert_eq!(c.gc(t(110)), 0, "exactly max_age old is not older than it");
        assert_eq!(c.gc(t(111)), 1);
        assert!(!c.contains(ItemId::new(PublisherId(1), 1)));
        // The bound moved up to the survivor, and an insert cannot raise it.
        c.insert(item(1, 3, "newest", 0), t(150));
        assert_eq!(c.gc(t(190)), 0);
        assert_eq!(c.gc(t(191)), 1);
        assert_eq!(c.gc(t(251)), 1);
        assert!(c.is_empty());
        // An emptied cache starts over.
        c.insert(item(1, 4, "again", 0), t(300));
        assert_eq!(c.gc(t(400)), 0);
        assert_eq!(c.gc(t(401)), 1);
    }

    #[test]
    fn a_proof_lives_and_dies_with_its_article() {
        let mut c = MessageCache::new(CachePolicy { max_items: 2, ..Default::default() });
        let proof = |n: u64| (KeyId(n), Signature(n));
        let id = |seq: u64| ItemId::new(PublisherId(1), seq);
        c.insert_signed(item(1, 1, "story", 0).into(), proof(1), t(0));
        c.insert_signed(item(1, 2, "story", 1).into(), proof(2), t(1));
        c.insert_signed(item(1, 3, "other", 0).into(), proof(3), t(2));
        let held: Vec<_> = c.iter_signed().map(|(i, p)| (i.id, p)).collect();
        assert_eq!(held, vec![(id(2), proof(2)), (id(3), proof(3))], "fusion took the proof too");
        c.insert_signed(item(1, 4, "third", 0).into(), proof(4), t(3));
        assert_eq!(c.get_signed(id(2)), None, "eviction took the proof too");
        assert_eq!(c.purge_signed_by(PublisherId(1), KeyId(3)), 1);
        assert_eq!(c.iter_signed().map(|(_, p)| p).collect::<Vec<_>>(), vec![proof(4)]);
    }

    #[test]
    fn replies_share_the_cached_allocation() {
        let mut c = MessageCache::default();
        let published = Arc::new(item(1, 1, "a", 0));
        c.insert(Arc::clone(&published), t(0));
        let id = published.id;
        assert!(Arc::ptr_eq(c.get(id).unwrap(), &published));
        assert!(Arc::ptr_eq(&c.snapshot(10)[0], &published));
        assert_eq!(c.latest_for_slug(PublisherId(1), "a"), Some(&*published));
        assert_eq!(c.latest_for_slug(PublisherId(2), "a"), None);
    }

    #[test]
    fn snapshot_returns_most_recent() {
        let mut c = MessageCache::default();
        for i in 0..10u64 {
            c.insert(item(1, i, &format!("s{i}"), 0), t(i));
        }
        let snap = c.snapshot(3);
        assert_eq!(snap.len(), 3);
        assert!(
            snap.iter().all(|i| i.id.seq >= 7),
            "{:?}",
            snap.iter().map(|i| i.id.seq).collect::<Vec<_>>()
        );
    }
}
