//! RSS/ATOM feeds (Section 3.4, Table 1 class `rssatom`).
//!
//! The paper observes (footnote 5) that RSS/ATOM "streams" are really
//! just XML documents republished on a web server with no change
//! notifications — clients must poll. This module models exactly that: a
//! [`FeedServer`] publishes feed documents at URLs; the stream substrate
//! (`idm-streams`) polls it and converts new entries into `xmldoc`
//! resource views, forming the infinite `rssatom` group sequence.

use std::collections::HashMap;

use idm_core::prelude::*;
use idm_core::value::Timestamp;
use parking_lot::RwLock;

use crate::parser::{parse, XmlDocument, XmlElement, XmlNode};
use crate::writer::to_xml_string;

/// One feed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedItem {
    /// Entry title.
    pub title: String,
    /// Entry author.
    pub author: String,
    /// Publication timestamp.
    pub published: Timestamp,
    /// Entry body text.
    pub body: String,
}

/// A feed: a titled sequence of items, newest last.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Feed {
    /// Feed title.
    pub title: String,
    /// Items in publication order.
    pub items: Vec<FeedItem>,
}

impl Feed {
    /// A new, empty feed.
    pub fn new(title: impl Into<String>) -> Self {
        Feed {
            title: title.into(),
            items: Vec::new(),
        }
    }

    /// Serializes the feed as an RSS-flavored XML document.
    pub fn to_xml(&self) -> String {
        let mut channel = XmlElement::new("channel");
        let mut title = XmlElement::new("title");
        title.children.push(XmlNode::Text(self.title.clone()));
        channel.children.push(XmlNode::Element(title));
        for item in &self.items {
            let mut e = XmlElement::new("item");
            e.attributes
                .push(("published".into(), item.published.0.to_string()));
            for (tag, value) in [
                ("title", &item.title),
                ("author", &item.author),
                ("description", &item.body),
            ] {
                let mut c = XmlElement::new(tag);
                c.children.push(XmlNode::Text(value.clone()));
                e.children.push(XmlNode::Element(c));
            }
            channel.children.push(XmlNode::Element(e));
        }
        let mut rss = XmlElement::new("rss");
        rss.attributes.push(("version".into(), "2.0".into()));
        rss.children.push(XmlNode::Element(channel));
        to_xml_string(&XmlDocument { root: rss })
    }

    /// Parses a feed from its XML serialization.
    pub fn from_xml(xml: &str) -> Result<Feed> {
        let doc = parse(xml).map_err(|e| IdmError::Parse {
            detail: e.to_string(),
        })?;
        let channel = doc
            .root
            .child_named("channel")
            .ok_or_else(|| IdmError::Parse {
                detail: "rss: missing <channel>".into(),
            })?;
        let mut feed = Feed::new(
            channel
                .child_named("title")
                .map(|t| t.direct_text())
                .unwrap_or_default(),
        );
        for item in channel.child_elements().filter(|e| e.name == "item") {
            let text_of = |tag: &str| {
                item.child_named(tag)
                    .map(|e| e.direct_text())
                    .unwrap_or_default()
            };
            let published = item
                .attr("published")
                .and_then(|p| p.parse::<i64>().ok())
                .map(Timestamp)
                .unwrap_or_default();
            feed.items.push(FeedItem {
                title: text_of("title"),
                author: text_of("author"),
                published,
                body: text_of("description"),
            });
        }
        Ok(feed)
    }
}

/// A simulated web server publishing feeds at URLs. Poll-only, like real
/// RSS servers: there is no way to subscribe for notifications.
#[derive(Default)]
pub struct FeedServer {
    feeds: RwLock<HashMap<String, Feed>>,
    faults: FaultPoint,
}

impl FeedServer {
    /// An empty server.
    pub fn new() -> Self {
        FeedServer::default()
    }

    /// Installs a fault plan on this server's fetches; returns the
    /// injector for call/fault counting.
    pub fn install_faults(&self, plan: FaultPlan) -> std::sync::Arc<FaultInjector> {
        self.faults.install(plan)
    }

    /// Removes any installed fault plan (the server heals).
    pub fn clear_faults(&self) {
        self.faults.clear()
    }

    fn fault_check(&self, op: &str) -> Result<FaultAction> {
        self.faults.check("rss", op)
    }

    /// Creates (or replaces) the feed at `url`.
    pub fn publish(&self, url: impl Into<String>, feed: Feed) {
        self.feeds.write().insert(url.into(), feed);
    }

    /// Appends an item to the feed at `url` (creating the feed if new),
    /// like a blog posting a new entry.
    pub fn append_item(&self, url: &str, item: FeedItem) {
        let mut feeds = self.feeds.write();
        feeds
            .entry(url.to_owned())
            .or_insert_with(|| Feed::new(url.to_owned()))
            .items
            .push(item);
    }

    /// Fetches the current document at `url` (one HTTP GET's worth).
    pub fn fetch(&self, url: &str) -> Result<String> {
        let action = self.fault_check("fetch")?;
        let mut xml = self
            .feeds
            .read()
            .get(url)
            .map(Feed::to_xml)
            .ok_or_else(|| IdmError::provider(format!("feed server: 404 for '{url}'")))?;
        // Torn read: the HTTP response was cut short mid-document.
        if let FaultAction::Truncate(keep) = action {
            let keep = xml
                .char_indices()
                .map(|(i, _)| i)
                .take_while(|i| *i <= keep)
                .last()
                .unwrap_or(0);
            xml.truncate(keep);
        }
        Ok(xml)
    }

    /// Number of items currently in the feed at `url`.
    pub fn item_count(&self, url: &str) -> usize {
        self.feeds
            .read()
            .get(url)
            .map(|f| f.items.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(i: usize) -> FeedItem {
        FeedItem {
            title: format!("Post {i}"),
            author: "jens".into(),
            published: Timestamp(1_000 + i as i64),
            body: format!("body of post {i} & more"),
        }
    }

    #[test]
    fn feed_xml_roundtrip() {
        let mut feed = Feed::new("DB group news");
        feed.items.push(item(1));
        feed.items.push(item(2));
        let xml = feed.to_xml();
        let parsed = Feed::from_xml(&xml).unwrap();
        assert_eq!(parsed, feed);
    }

    #[test]
    fn server_is_poll_based() {
        let server = FeedServer::new();
        server.publish("http://feeds.example.org/db", Feed::new("db"));
        assert_eq!(server.item_count("http://feeds.example.org/db"), 0);

        server.append_item("http://feeds.example.org/db", item(1));
        // The client sees the change only by fetching again.
        let xml = server.fetch("http://feeds.example.org/db").unwrap();
        let feed = Feed::from_xml(&xml).unwrap();
        assert_eq!(feed.items.len(), 1);

        server.append_item("http://feeds.example.org/db", item(2));
        let feed = Feed::from_xml(&server.fetch("http://feeds.example.org/db").unwrap()).unwrap();
        assert_eq!(feed.items.len(), 2);
    }

    #[test]
    fn fetch_unknown_url_is_404() {
        let server = FeedServer::new();
        assert!(server.fetch("http://nowhere/").is_err());
    }
}
