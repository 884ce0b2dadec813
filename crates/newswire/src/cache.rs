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
///
/// Entries sit in two parallel vectors sorted by id: a node takes each
/// publisher's articles mostly in seq order, so an insert is most often an
/// append, and a flat entry costs its own 48 bytes instead of a tree
/// node's share.
#[derive(Debug)]
pub struct MessageCache {
    policy: CachePolicy,
    /// Cached ids, ascending; `entries[i]` belongs to `keys[i]`. The ids
    /// are kept beside the articles so a lookup never reads through a
    /// handle.
    keys: Vec<ItemId>,
    entries: Vec<(Arc<NewsItem>, SimTime, Proof)>,
    /// Latest cached revision per story: one index per publisher, by
    /// publisher, each a key-sorted list of `(key, seq)` — 16 bytes a story.
    /// The key is [`slug_key`], a 64-bit hash of `(publisher, slug)`, so
    /// neither an entry nor a lookup owns a `String`. Every hit is confirmed
    /// against the cached item's slug.
    latest_by_slug: Vec<(PublisherId, Vec<(u64, u64)>)>,
    /// Lower bound on the arrival time of every cached item: while it is
    /// younger than `max_age` there is nothing for [`Self::gc`] to scan for.
    oldest: SimTime,
}

impl MessageCache {
    /// Creates an empty cache under `policy`.
    pub fn new(policy: CachePolicy) -> Self {
        MessageCache {
            policy,
            keys: Vec::new(),
            entries: Vec::new(),
            latest_by_slug: Vec::new(),
            oldest: SimTime::MAX,
        }
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Where `id` is cached (`Ok`), or where it would be inserted. Ids are
    /// compared as one integer each: the derived field-by-field order
    /// branches per probe and made a lookup slower than the map's.
    fn find(&self, id: ItemId) -> Result<usize, usize> {
        let order = |id: &ItemId| (u128::from(id.publisher.0) << 64) | u128::from(id.seq);
        let want = order(&id);
        self.keys.binary_search_by(|k| order(k).cmp(&want))
    }

    /// `publisher`'s slug index; empty when none of its stories is cached.
    fn stories(&self, publisher: PublisherId) -> &[(u64, u64)] {
        match self.latest_by_slug.binary_search_by_key(&publisher, |&(p, _)| p) {
            Ok(at) => &self.latest_by_slug[at].1,
            Err(_) => &[],
        }
    }

    /// `publisher`'s slug index, made when it has none.
    fn stories_mut(&mut self, publisher: PublisherId) -> &mut Vec<(u64, u64)> {
        let at = match self.latest_by_slug.binary_search_by_key(&publisher, |&(p, _)| p) {
            Ok(at) => at,
            Err(at) => {
                self.latest_by_slug.insert(at, (publisher, Vec::new()));
                at
            }
        };
        &mut self.latest_by_slug[at].1
    }

    /// Where the story `key` sits in `publisher`'s slug index (`Ok`), or
    /// would.
    fn slug_slot(&self, publisher: PublisherId, key: u64) -> Result<usize, usize> {
        self.stories(publisher).binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Whether `id` is currently cached.
    pub fn contains(&self, id: ItemId) -> bool {
        self.find(id).is_ok()
    }

    /// A cached item by id.
    pub fn get(&self, id: ItemId) -> Option<&Arc<NewsItem>> {
        self.find(id).ok().map(|at| &self.entries[at].0)
    }

    /// A cached item by id, with its proof.
    pub(crate) fn get_signed(&self, id: ItemId) -> Option<(&Arc<NewsItem>, Proof)> {
        self.find(id).ok().map(|at| (&self.entries[at].0, self.entries[at].2))
    }

    /// The latest cached revision of `publisher`'s story `slug`, if any
    /// (the delta-encoding baseline lookup).
    pub fn latest_for_slug(&self, publisher: PublisherId, slug: &str) -> Option<&NewsItem> {
        let slot = self.slug_slot(publisher, slug_key(publisher, slug)).ok()?;
        self.latest_at(slot, publisher, slug)
    }

    /// [`Self::latest_for_slug`] with the story's slot in the publisher's
    /// slug index already in hand.
    fn latest_at(&self, slot: usize, publisher: PublisherId, slug: &str) -> Option<&NewsItem> {
        let item = self.get(ItemId::new(publisher, self.stories(publisher)[slot].1))?;
        // A colliding key is a different story, not an earlier telling.
        (item.slug == slug).then_some(&**item)
    }

    /// Baseline hints for the revisions of `publisher`'s stories this cache
    /// holds — what a reconcile requester declares so the responder can
    /// delta-encode its reply. Sorted by key (the slug index's own order)
    /// and capped at `cap` so the request stays small.
    pub fn baselines(&self, publisher: PublisherId, cap: usize) -> Vec<amcast::BaselineHint> {
        self.stories(publisher)
            .iter()
            .filter_map(|&(key, seq)| self.get(ItemId::new(publisher, seq)).map(|item| (key, item)))
            .map(|(key, item)| amcast::BaselineHint {
                key,
                revision: item.revision,
                body_len: item.body_len,
            })
            .take(cap)
            .collect()
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
        // Arrivals run in seq order: check the append before searching.
        let mut at = match self.keys.last() {
            Some(&last) if last >= item.id => match self.find(item.id) {
                Ok(_) => return CacheOutcome::Duplicate,
                Err(at) => at,
            },
            _ => self.keys.len(),
        };
        let mut outcome = CacheOutcome::Stored;
        let (publisher, key) = (item.id.publisher, slug_key(item.id.publisher, &item.slug));
        let slot = self.slug_slot(publisher, key);
        let prev = slot.ok().and_then(|s| self.latest_at(s, publisher, &item.slug));
        if let Some((prev_id, prev_revision)) = prev.map(|p| (p.id, p.revision)) {
            if prev_revision >= item.revision {
                // We already hold a newer (or equal) telling of this
                // story; keep it and drop the stale revision.
                return CacheOutcome::Obsolete;
            }
            // Fuse: the new revision replaces the old one.
            let gone = self.find(prev_id).expect("the slug index names a cached item");
            self.keys.remove(gone);
            self.entries.remove(gone);
            at -= usize::from(gone < at);
            outcome = CacheOutcome::Fused;
        }
        let stories = self.stories_mut(publisher);
        match slot {
            Ok(s) => stories[s].1 = item.id.seq,
            Err(s) => stories.insert(s, (key, item.id.seq)),
        }
        self.keys.insert(at, item.id);
        self.entries.insert(at, (item, now, proof));
        self.oldest = self.oldest.min(now);
        if self.keys.len() > self.policy.max_items {
            // Evict the oldest-received item, the first in id order among
            // equals (one insert grows the cache by at most one).
            let victim =
                (0..self.entries.len()).min_by_key(|&i| self.entries[i].1).expect("non-empty");
            self.remove_at(victim);
        }
        outcome
    }

    /// Removes the entry at `at`, and the slug index's pointer to it.
    fn remove_at(&mut self, at: usize) {
        let id = self.keys.remove(at);
        let (item, ..) = self.entries.remove(at);
        if let Ok(s) = self.slug_slot(id.publisher, slug_key(id.publisher, &item.slug)) {
            let stories = self.stories_mut(id.publisher);
            if stories[s].1 == id.seq {
                stories.remove(s);
            }
        }
    }

    /// Removes every entry `doomed` picks; returns how many.
    fn remove_where(
        &mut self,
        doomed: impl Fn(&ItemId, &(Arc<NewsItem>, SimTime, Proof)) -> bool,
    ) -> usize {
        let before = self.keys.len();
        let mut at = 0;
        while at < self.keys.len() {
            if doomed(&self.keys[at], &self.entries[at]) {
                self.remove_at(at);
            } else {
                at += 1;
            }
        }
        before - self.keys.len()
    }

    /// Evicts `id` unconditionally, bypassing policy. Used by the
    /// trust-root rotation retroactive purge (DESIGN §15): items admitted
    /// under a key that has since been revoked are unverifiable history and
    /// must not be served to repair or reconcile peers. Returns whether the
    /// item was present.
    pub fn purge(&mut self, id: ItemId) -> bool {
        let at = self.find(id);
        if let Ok(at) = at {
            self.remove_at(at);
        }
        at.is_ok()
    }

    /// Purges every item `publisher` signed under `key`; returns how many.
    pub(crate) fn purge_signed_by(&mut self, publisher: PublisherId, key: KeyId) -> u64 {
        self.remove_where(|id, (.., (signer, _))| id.publisher == publisher && *signer == key)
            as u64
    }

    /// Garbage-collects items older than the policy's `max_age`.
    /// Returns how many were collected.
    pub fn gc(&mut self, now: SimTime) -> usize {
        let cutoff = now.as_micros().saturating_sub(self.policy.max_age.as_micros());
        if self.oldest.as_micros() >= cutoff {
            return 0;
        }
        let n = self.remove_where(|_, (_, at, _)| at.as_micros() < cutoff);
        self.oldest = self.entries.iter().map(|(_, at, _)| *at).min().unwrap_or(SimTime::MAX);
        n
    }

    /// The most recent `limit` items across publishers (the XML-RPC
    /// `newswire.latest` feed).
    pub fn snapshot(&self, limit: usize) -> Vec<Arc<NewsItem>> {
        let mut all: Vec<(&SimTime, &Arc<NewsItem>)> =
            self.entries.iter().map(|(item, at, _)| (at, item)).collect();
        all.sort_by_key(|(at, _)| std::cmp::Reverse(**at));
        all.into_iter().take(limit).map(|(_, item)| Arc::clone(item)).collect()
    }

    /// Heap bytes the entries and the slug index have allocated, capacity
    /// included: `(entries, slug index)`.
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let entries = self.keys.capacity() * size_of::<ItemId>()
            + self.entries.capacity() * size_of::<(Arc<NewsItem>, SimTime, Proof)>();
        let slugs = self.latest_by_slug.capacity() * size_of::<(PublisherId, Vec<(u64, u64)>)>()
            + self
                .latest_by_slug
                .iter()
                .map(|(_, s)| s.capacity() * size_of::<(u64, u64)>())
                .sum::<usize>();
        (entries, slugs)
    }

    /// Iterates over cached items, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<NewsItem>> {
        self.entries.iter().map(|(item, ..)| item)
    }

    /// Iterates over cached items with their proofs, in id order.
    pub(crate) fn iter_signed(&self) -> impl Iterator<Item = (&Arc<NewsItem>, Proof)> {
        self.entries.iter().map(|(item, _, proof)| (item, *proof))
    }
}

impl Default for MessageCache {
    fn default() -> Self {
        MessageCache::new(CachePolicy::default())
    }
}

/// The cache as it was kept in two maps before [`MessageCache`] went flat:
/// the reference the differential test drives in lockstep.
#[cfg(test)]
mod model {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use astrolabe::KeyId;
    use newsml::cdc::slug_key;
    use newsml::{ItemId, NewsItem, PublisherId};
    use simnet::SimTime;

    use super::{CacheOutcome, CachePolicy, Proof};

    pub(super) struct MapCache {
        policy: CachePolicy,
        items: BTreeMap<ItemId, (Arc<NewsItem>, SimTime, Proof)>,
        latest_by_slug: BTreeMap<u64, ItemId>,
    }

    impl MapCache {
        pub(super) fn new(policy: CachePolicy) -> Self {
            MapCache { policy, items: BTreeMap::new(), latest_by_slug: BTreeMap::new() }
        }

        pub(super) fn len(&self) -> usize {
            self.items.len()
        }

        fn get(&self, id: ItemId) -> Option<&Arc<NewsItem>> {
            self.items.get(&id).map(|(item, ..)| item)
        }

        pub(super) fn get_signed(&self, id: ItemId) -> Option<(&Arc<NewsItem>, Proof)> {
            self.items.get(&id).map(|(item, _, proof)| (item, *proof))
        }

        pub(super) fn latest_for_slug(
            &self,
            publisher: PublisherId,
            slug: &str,
        ) -> Option<&NewsItem> {
            self.latest_at(slug_key(publisher, slug), publisher, slug)
        }

        fn latest_at(&self, key: u64, publisher: PublisherId, slug: &str) -> Option<&NewsItem> {
            let item = self.get(*self.latest_by_slug.get(&key)?)?;
            (item.id.publisher == publisher && item.slug == slug).then_some(&**item)
        }

        pub(super) fn baselines(
            &self,
            publisher: PublisherId,
            cap: usize,
        ) -> Vec<amcast::BaselineHint> {
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

        pub(super) fn insert_signed(
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
                    return CacheOutcome::Obsolete;
                }
                self.items.remove(&prev_id);
                outcome = CacheOutcome::Fused;
            }
            self.latest_by_slug.insert(key, item.id);
            self.items.insert(item.id, (item, now, proof));
            if self.items.len() > self.policy.max_items {
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

        pub(super) fn purge(&mut self, id: ItemId) -> bool {
            let present = self.items.contains_key(&id);
            self.remove(id);
            present
        }

        pub(super) fn purge_signed_by(&mut self, publisher: PublisherId, key: KeyId) -> u64 {
            let victims: Vec<ItemId> = self
                .items
                .iter()
                .filter(|(id, (.., (signer, _)))| id.publisher == publisher && *signer == key)
                .map(|(&id, _)| id)
                .collect();
            victims.into_iter().map(|id| u64::from(self.purge(id))).sum()
        }

        pub(super) fn gc(&mut self, now: SimTime) -> usize {
            let cutoff = now.as_micros().saturating_sub(self.policy.max_age.as_micros());
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
            n
        }

        pub(super) fn snapshot(&self, limit: usize) -> Vec<Arc<NewsItem>> {
            let mut all: Vec<(&SimTime, &Arc<NewsItem>)> =
                self.items.values().map(|(item, at, _)| (at, item)).collect();
            all.sort_by_key(|(at, _)| std::cmp::Reverse(**at));
            all.into_iter().take(limit).map(|(_, item)| Arc::clone(item)).collect()
        }

        pub(super) fn iter_signed(&self) -> impl Iterator<Item = (&Arc<NewsItem>, Proof)> {
            self.items.values().map(|(item, _, proof)| (item, *proof))
        }
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
    /// Ids the differential test draws from: two publishers, 24 seqs each.
    fn any_id(n: u64) -> ItemId {
        ItemId::new(PublisherId((n / 24 % 2) as u16), n % 24)
    }

    /// Drives the flat cache and the map model through `ops` in lockstep,
    /// comparing every query after every operation. Returns the outcomes
    /// the inserts produced, one bit per [`CacheOutcome`].
    fn drive_against_model(max_items: usize, ops: &[(u8, u64, u64)]) -> u8 {
        let policy = CachePolicy { max_items, max_age: SimDuration::from_secs(40) };
        let (mut cache, mut model) = (MessageCache::new(policy), model::MapCache::new(policy));
        let mut now = SimTime::ZERO;
        let mut seen = 0u8;
        for &(op, a, b) in ops {
            match op {
                0..=6 => {
                    // Revisions of a few stories, in and out of order, and
                    // equal arrival times to test eviction ties.
                    now += SimDuration::from_secs(a % 3);
                    let id = any_id(a);
                    let slug = format!("s{}", b % 4);
                    let it = Arc::new(item(id.publisher.0, id.seq, &slug, (b / 4 % 4) as u32));
                    let proof = (KeyId(1 + b % 2), Signature(b));
                    let outcome = cache.insert_signed(Arc::clone(&it), proof, now);
                    assert_eq!(outcome, model.insert_signed(it, proof, now), "insert {id:?}");
                    seen |= 1 << outcome as u8;
                }
                7 => {
                    now += SimDuration::from_secs(a % 30);
                    assert_eq!(cache.gc(now), model.gc(now), "gc at {now:?}");
                }
                8 => assert_eq!(cache.purge(any_id(a)), model.purge(any_id(a))),
                _ => {
                    let (publisher, key) = (PublisherId((a % 2) as u16), KeyId(1 + b % 2));
                    let ours = cache.purge_signed_by(publisher, key);
                    assert_eq!(ours, model.purge_signed_by(publisher, key));
                }
            }
            assert_eq!(cache.len(), model.len());
            let held = |it: (&Arc<NewsItem>, Proof)| (it.0.id, it.1);
            let ours: Vec<_> = cache.iter_signed().map(held).collect();
            assert_eq!(ours, model.iter_signed().map(held).collect::<Vec<_>>());
            for n in 0..48 {
                let id = any_id(n);
                assert_eq!(cache.get_signed(id).map(held), model.get_signed(id).map(held));
            }
            for publisher in [PublisherId(0), PublisherId(1)] {
                for slug in ["s0", "s1", "s2", "s3"] {
                    let id = |it: Option<&NewsItem>| it.map(|it| it.id);
                    assert_eq!(
                        id(cache.latest_for_slug(publisher, slug)),
                        id(model.latest_for_slug(publisher, slug)),
                        "latest {publisher:?} {slug}"
                    );
                }
                let cap = (b % 5) as usize;
                assert_eq!(cache.baselines(publisher, cap), model.baselines(publisher, cap));
            }
            let ids = |v: Vec<Arc<NewsItem>>| v.iter().map(|it| it.id).collect::<Vec<_>>();
            let limit = (a % 8) as usize;
            assert_eq!(ids(cache.snapshot(limit)), ids(model.snapshot(limit)));
        }
        seen
    }

    #[test]
    fn the_model_comparison_reaches_every_outcome() {
        // Story s1 at revision 1, a duplicate, revision 2 (fused), a late
        // revision 0 (obsolete), then two more stories past `max_items`.
        let ops = [(0, 1, 5), (0, 1, 5), (0, 2, 9), (0, 3, 1), (0, 4, 2), (0, 5, 3)];
        assert_eq!(drive_against_model(2, &ops), 0b1111);
    }

    proptest::proptest! {
        /// The flat cache answers every query as the map-backed cache it
        /// replaced does, after every operation of a seeded sequence that
        /// stores, duplicates, fuses, obsoletes, evicts, ages out and
        /// purges.
        #[test]
        fn the_flat_cache_matches_the_map_model(
            max_items in 1usize..7,
            ops in proptest::collection::vec((0u8..10, 0u64..1_000, 0u64..1_000), 1..80),
        ) {
            drive_against_model(max_items, &ops);
        }
    }
}
