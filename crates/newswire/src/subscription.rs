//! Subscriptions (paper §7–§8).
//!
//! A subscriber expresses interest as (a) per-publisher category sets — the
//! early-prototype bitmask model, (b) hierarchical subject codes hashed
//! into the shared Bloom array, and (c) an optional SQL predicate over the
//! item metadata, evaluated exactly at the leaf ("Users would subscribe to
//! a set of publishers and provide more complex selection criteria based on
//! the meta-data associated with the news-items, in the form of an SQL
//! query").

use astrolabe::{eval_predicate, parse_predicate, AttrValue, Expr, ParseAggError, RowSource};
use filters::{positions, BitArray, BloomFilter, CategoryMask};
use newsml::{Category, NewsItem, PublisherId, Subject};

use crate::config::SubscriptionModel;

/// Adapter exposing a news item's fields/metadata as SQL columns.
#[derive(Debug, Clone, Copy)]
pub struct ItemRow<'a>(pub &'a NewsItem);

impl RowSource for ItemRow<'_> {
    fn col(&self, name: &str) -> Option<std::borrow::Cow<'_, AttrValue>> {
        let v = match name {
            "urgency" => AttrValue::Int(i64::from(self.0.urgency.level())),
            "publisher" => AttrValue::Int(i64::from(self.0.id.publisher.0)),
            "revision" => AttrValue::Int(i64::from(self.0.revision)),
            "body_len" => AttrValue::Int(i64::from(self.0.body_len)),
            "headline" => AttrValue::Str(self.0.headline.clone()),
            "slug" => AttrValue::Str(self.0.slug.clone()),
            _ => AttrValue::Str(self.0.field(name)?),
        };
        Some(std::borrow::Cow::Owned(v))
    }
}

/// One subscriber's interest specification.
#[derive(Debug, Clone, Default)]
pub struct Subscription {
    /// Per-publisher category interests (the §7 prototype model).
    pub publishers: Vec<(PublisherId, Vec<Category>)>,
    /// Subject-code interests (matched against item subjects by prefix).
    pub subjects: Vec<Subject>,
    /// Optional SQL predicate over item metadata, applied at the leaf.
    predicate: Option<Expr>,
    /// The SQL source the predicate was parsed from, retained verbatim so
    /// the subscription can be persisted to stable storage and re-derived
    /// on a cold restart.
    predicate_sql: Option<String>,
}

impl Subscription {
    /// Creates an empty subscription (matches nothing).
    pub fn new() -> Self {
        Subscription::default()
    }

    /// Adds interest in `category` items from `publisher`.
    pub fn subscribe_category(&mut self, publisher: PublisherId, category: Category) {
        match self.publishers.iter_mut().find(|(p, _)| *p == publisher) {
            Some((_, cats)) => {
                if !cats.contains(&category) {
                    cats.push(category);
                }
            }
            None => self.publishers.push((publisher, vec![category])),
        }
    }

    /// Adds interest in a subject subtree.
    pub fn subscribe_subject(&mut self, subject: Subject) {
        if !self.subjects.contains(&subject) {
            self.subjects.push(subject);
        }
    }

    /// Sets the SQL predicate, e.g. `urgency <= 3 AND CONTAINS(source, 'reuters')`.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed SQL.
    pub fn set_predicate(&mut self, sql: &str) -> Result<(), ParseAggError> {
        self.predicate = Some(parse_predicate(sql)?);
        self.predicate_sql = Some(sql.to_owned());
        Ok(())
    }

    /// The SQL source of the current predicate, if one is set — what a node
    /// writes to stable storage so a cold restart can re-derive the exact
    /// filter it was running before the crash.
    pub fn predicate_sql(&self) -> Option<&str> {
        self.predicate_sql.as_deref()
    }

    /// True when no interest at all has been expressed.
    pub fn is_empty(&self) -> bool {
        self.publishers.is_empty() && self.subjects.is_empty()
    }

    /// The Bloom subscription keys (must mirror
    /// `NewsItem::subscription_keys` on the publishing side).
    pub fn bloom_keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        for (publisher, cats) in &self.publishers {
            for c in cats {
                keys.push(format!("{publisher}/{}", c.name()));
            }
        }
        for s in &self.subjects {
            keys.push(format!("subject/{}", s.key()));
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Renders the subscription into an `m`-bit, `k`-hash Bloom array — the
    /// value this node publishes as its `subs` attribute.
    pub fn to_bloom(&self, m: usize, k: u32) -> BitArray {
        let mut f = BloomFilter::new(m, k);
        for key in self.bloom_keys() {
            f.insert(&key);
        }
        f.bits().clone()
    }

    /// The category mask for `publisher` (the §7 prototype attribute).
    pub fn mask_for(&self, publisher: PublisherId) -> CategoryMask {
        self.publishers
            .iter()
            .find(|(p, _)| *p == publisher)
            .map(|(_, cats)| cats.iter().map(|c| c.bit()).collect())
            .unwrap_or(CategoryMask::EMPTY)
    }

    /// The interest in `publisher` under `model`: the set positions of the
    /// summary value the tree tests at the subscriber's leaf row — `subs`,
    /// or `cats$<publisher>` — derived from the subscription itself, so a
    /// corrupted advertisement cannot talk a node out of what it wants.
    pub(crate) fn interest(&self, model: SubscriptionModel, publisher: PublisherId) -> Vec<u16> {
        match model {
            SubscriptionModel::Bloom { bits, hashes } => self
                .to_bloom(bits, hashes)
                .ones()
                .map(|p| u16::try_from(p).expect("Bloom arrays are narrower than 2^16 bits"))
                .collect(),
            SubscriptionModel::CategoryMask => {
                let mask = self.mask_for(publisher).0;
                (0..64).filter(|&b| mask >> b & 1 == 1).collect()
            }
        }
    }

    /// Structural interest: does the item hit any category or subject
    /// subscription? (Exact, no Bloom involved — the leaf-side final test.)
    pub fn interested_in(&self, item: &NewsItem) -> bool {
        let cat_hit = self.publishers.iter().any(|(p, cats)| {
            *p == item.id.publisher && item.categories.iter().any(|c| cats.contains(c))
        });
        let subj_hit = self
            .subjects
            .iter()
            .any(|want| item.subjects.iter().any(|have| have.is_descendant_of(want)));
        cat_hit || subj_hit
    }

    /// The §8 full match: structural interest *and* the SQL predicate.
    /// Predicate evaluation errors reject the item (fail-closed).
    pub fn matches(&self, item: &NewsItem) -> bool {
        if !self.interested_in(item) {
            return false;
        }
        match &self.predicate {
            None => true,
            Some(p) => eval_predicate(p, &ItemRow(item)).unwrap_or(false),
        }
    }
}

/// Bit-position groups for an item in an `m`-bit, `k`-hash Bloom space —
/// what the publisher attaches to the item (§6: "an attribute is added to
/// the data representing the bit position in the subscription array this
/// publication corresponds to").
pub fn item_position_groups(item: &NewsItem, m: usize, k: u32) -> Vec<Vec<usize>> {
    item.subscription_keys().iter().map(|key| positions(key, m, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use newsml::Urgency;

    fn item() -> NewsItem {
        NewsItem::builder(PublisherId(1), 5)
            .headline("Gossip ships")
            .category(Category::Technology)
            .subject("04.003.005".parse().unwrap())
            .urgency(Urgency::new(2))
            .meta("source", "slashdot")
            .build()
    }

    fn tech_sub() -> Subscription {
        let mut s = Subscription::new();
        s.subscribe_category(PublisherId(1), Category::Technology);
        s
    }

    #[test]
    fn category_subscription_matches() {
        assert!(tech_sub().matches(&item()));
        let mut other = Subscription::new();
        other.subscribe_category(PublisherId(2), Category::Technology);
        assert!(!other.matches(&item()), "different publisher");
        let mut sports = Subscription::new();
        sports.subscribe_category(PublisherId(1), Category::Sports);
        assert!(!sports.matches(&item()), "different category");
    }

    #[test]
    fn subject_prefix_matches() {
        let mut s = Subscription::new();
        s.subscribe_subject("04.003".parse().unwrap());
        assert!(s.matches(&item()), "item subject 04.003.005 under 04.003");
        let mut narrow = Subscription::new();
        narrow.subscribe_subject("04.003.009".parse().unwrap());
        assert!(!narrow.matches(&item()));
    }

    #[test]
    fn predicate_refines_interest() {
        let mut s = tech_sub();
        s.set_predicate("urgency <= 3").unwrap();
        assert!(s.matches(&item()));
        s.set_predicate("urgency = 1").unwrap();
        assert!(!s.matches(&item()));
        s.set_predicate("CONTAINS(source, 'slash')").unwrap();
        assert!(s.matches(&item()));
    }

    #[test]
    fn predicate_errors_fail_closed() {
        let mut s = tech_sub();
        s.set_predicate("source + 1 = 2").unwrap(); // type error at eval time
        assert!(!s.matches(&item()));
        assert!(s.set_predicate("not even sql !!!").is_err());
    }

    #[test]
    fn bloom_keys_align_with_item_keys() {
        let s = tech_sub();
        let item = item();
        let sub_keys = s.bloom_keys();
        let item_keys = item.subscription_keys();
        assert!(
            sub_keys.iter().any(|k| item_keys.contains(k)),
            "sub {sub_keys:?} vs item {item_keys:?}"
        );
    }

    #[test]
    fn bloom_rendering_admits_matching_item() {
        let mut s = tech_sub();
        s.subscribe_subject("07".parse().unwrap());
        let bits = s.to_bloom(1024, 3);
        let groups = item_position_groups(&item(), 1024, 3);
        let hit = groups.iter().any(|g| g.iter().all(|&p| bits.get(p)));
        assert!(hit, "subscriber bits must cover at least one item key group");
    }

    #[test]
    fn mask_for_publisher() {
        let mut s = tech_sub();
        s.subscribe_category(PublisherId(1), Category::Science);
        let m = s.mask_for(PublisherId(1));
        assert!(m.contains(Category::Technology.bit()));
        assert!(m.contains(Category::Science.bit()));
        assert!(s.mask_for(PublisherId(9)).is_empty());
    }

    #[test]
    fn empty_subscription_matches_nothing() {
        assert!(Subscription::new().is_empty());
        assert!(!Subscription::new().matches(&item()));
    }

    #[test]
    fn item_row_exposes_builtin_and_meta_columns() {
        let it = item();
        let row = ItemRow(&it);
        let col = |name: &str| row.col(name).map(|c| c.into_owned());
        assert_eq!(col("urgency"), Some(AttrValue::Int(2)));
        assert_eq!(col("publisher"), Some(AttrValue::Int(1)));
        assert_eq!(col("source"), Some(AttrValue::Str("slashdot".into())));
        assert_eq!(col("nope"), None);
    }
}
