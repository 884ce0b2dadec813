//! RSS bootstrap agents (paper §10).
//!
//! "We have already developed some agents that are capable of transforming
//! the current RSS/HTML information from some publishers into message
//! streams for the system to bootstrap it." This module models that
//! ingestion path: a minimal RSS 0.91-style channel document (parsed with
//! the in-repo XML parser), and an agent that polls a channel, deduplicates
//! entries across polls, and emits fresh `NewsItem`s ready for a
//! `PublishRequest`.

use std::collections::BTreeSet;

use newsml::xml::{parse, Element, ParseXmlError};
use newsml::{Category, NewsItem, PublisherId, Subject, Urgency};

/// One `<item>` of an RSS channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RssEntry {
    /// Item title.
    pub title: String,
    /// Link to the full article.
    pub link: String,
    /// Stable unique id of the entry.
    pub guid: String,
    /// Optional category string.
    pub category: Option<String>,
}

/// A minimal RSS channel document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RssChannel {
    /// Channel title.
    pub title: String,
    /// Entries, newest first (as sites publish them).
    pub entries: Vec<RssEntry>,
}

impl RssChannel {
    /// Serializes the channel to RSS XML.
    pub fn to_xml(&self) -> String {
        let mut channel =
            Element::new("channel").with_child(Element::new("title").with_text(self.title.clone()));
        for e in &self.entries {
            let mut item = Element::new("item")
                .with_child(Element::new("title").with_text(e.title.clone()))
                .with_child(Element::new("link").with_text(e.link.clone()))
                .with_child(Element::new("guid").with_text(e.guid.clone()));
            if let Some(c) = &e.category {
                item = item.with_child(Element::new("category").with_text(c.clone()));
            }
            channel = channel.with_child(item);
        }
        Element::new("rss").with_attr("version", "0.91").with_child(channel).to_xml()
    }

    /// Parses a channel from RSS XML.
    ///
    /// # Errors
    ///
    /// Returns the underlying XML error, or a shape error (as
    /// [`ParseXmlError`] with offset 0) when the document is not an RSS
    /// channel.
    pub fn from_xml(xml: &str) -> Result<RssChannel, ParseXmlError> {
        let root = parse(xml)?;
        let shape = |m: &str| ParseXmlError { offset: 0, message: m.to_owned() };
        if root.name != "rss" {
            return Err(shape("root element is not <rss>"));
        }
        let channel = root.child("channel").ok_or_else(|| shape("missing <channel>"))?;
        let title = channel.child("title").map(|t| t.text()).unwrap_or_default();
        let mut entries = Vec::new();
        for item in channel.children_named("item") {
            entries.push(RssEntry {
                title: item.child("title").map(|t| t.text()).unwrap_or_default(),
                link: item.child("link").map(|t| t.text()).unwrap_or_default(),
                guid: item
                    .child("guid")
                    .map(|t| t.text())
                    .ok_or_else(|| shape("item missing <guid>"))?,
                category: item.child("category").map(|t| t.text()),
            });
        }
        Ok(RssChannel { title, entries })
    }
}

/// Transforms successive polls of an RSS channel into a stream of fresh
/// news items for one publisher.
#[derive(Debug)]
pub struct RssIngestAgent {
    publisher: PublisherId,
    next_seq: u64,
    seen_guids: BTreeSet<String>,
    default_category: Category,
}

impl RssIngestAgent {
    /// Creates an agent publishing as `publisher`; entries without a
    /// recognizable category get `default_category`.
    pub fn new(publisher: PublisherId, default_category: Category) -> Self {
        RssIngestAgent { publisher, next_seq: 0, seen_guids: BTreeSet::new(), default_category }
    }

    /// Number of distinct entries ingested so far.
    pub fn ingested(&self) -> usize {
        self.seen_guids.len()
    }

    /// Ingests one poll of the channel, returning news items for entries
    /// not seen in any earlier poll (newest last, ready to publish in
    /// order).
    pub fn ingest(&mut self, channel: &RssChannel) -> Vec<NewsItem> {
        let mut fresh = Vec::new();
        // RSS lists newest first; emit oldest first.
        for entry in channel.entries.iter().rev() {
            if !self.seen_guids.insert(entry.guid.clone()) {
                continue;
            }
            let category = entry
                .category
                .as_deref()
                .and_then(|c| c.to_lowercase().parse::<Category>().ok())
                .unwrap_or(self.default_category);
            let item = NewsItem::builder(self.publisher, self.next_seq)
                .headline(entry.title.clone())
                .category(category)
                .subject(Subject::new(vec![u16::from(category.bit()) + 1]))
                .urgency(Urgency::ROUTINE)
                .body_len(1200)
                .meta("link", entry.link.clone())
                .meta("guid", entry.guid.clone())
                .build();
            self.next_seq += 1;
            fresh.push(item);
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(guids: &[&str]) -> RssChannel {
        RssChannel {
            title: "Slashdot".into(),
            entries: guids
                .iter()
                .map(|g| RssEntry {
                    title: format!("Story {g}"),
                    link: format!("https://example.org/{g}"),
                    guid: (*g).to_owned(),
                    category: Some("technology".into()),
                })
                .collect(),
        }
    }

    #[test]
    fn xml_roundtrip() {
        let c = channel(&["a1", "a2"]);
        let back = RssChannel::from_xml(&c.to_xml()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn rejects_non_rss() {
        assert!(RssChannel::from_xml("<html/>").is_err());
        assert!(RssChannel::from_xml("<rss><channel><item/></channel></rss>").is_err());
    }

    #[test]
    fn ingest_deduplicates_across_polls() {
        let mut agent = RssIngestAgent::new(PublisherId(3), Category::Technology);
        let first = agent.ingest(&channel(&["a", "b"]));
        assert_eq!(first.len(), 2);
        // Front page rolls: "c" is new, "b" repeats.
        let second = agent.ingest(&channel(&["c", "b"]));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].headline, "Story c");
        assert_eq!(agent.ingested(), 3);
        // Sequence numbers are dense and publisher-scoped.
        assert_eq!(second[0].id.seq, 2);
        assert_eq!(second[0].id.publisher, PublisherId(3));
    }

    #[test]
    fn ingest_oldest_first_and_categorized() {
        let mut agent = RssIngestAgent::new(PublisherId(3), Category::World);
        let items = agent.ingest(&channel(&["new", "old"]));
        assert_eq!(items[0].headline, "Story old");
        assert_eq!(items[1].headline, "Story new");
        assert_eq!(items[0].categories, vec![Category::Technology]);
    }

    #[test]
    fn unknown_category_falls_back() {
        let mut agent = RssIngestAgent::new(PublisherId(3), Category::World);
        let mut c = channel(&["x"]);
        c.entries[0].category = Some("weird-vertical".into());
        let items = agent.ingest(&c);
        assert_eq!(items[0].categories, vec![Category::World]);
    }

    #[test]
    fn metadata_carries_link_and_guid() {
        let mut agent = RssIngestAgent::new(PublisherId(3), Category::World);
        let items = agent.ingest(&channel(&["k"]));
        assert_eq!(items[0].field("guid").as_deref(), Some("k"));
        assert!(items[0].field("link").unwrap().contains("/k"));
    }
}
