//! XML-RPC integration gateway (paper §10).
//!
//! "We are also looking for integration into popular content aggregation
//! systems such as Radio Userland using XML-RPC mechanisms."
//!
//! A minimal XML-RPC 1.0 codec (on the in-repo XML parser) plus the gateway
//! method set a content aggregator would call against a local NewsWire
//! node:
//!
//! * `newswire.publish(<nitf-xml>)` → item guid — hand an article to the
//!   local publisher application.
//! * `newswire.latest(n)` → array of NITF documents from the local cache.
//! * `newswire.subscriptions()` → array of the node's Bloom keys.
//!
//! The gateway operates purely on a [`NewsWireNode`]'s state plus a
//! publish-callback, so it composes with any transport (the simulation, or
//! real HTTP in a production port).

use std::fmt;

use newsml::xml::{parse, Element, ParseXmlError};
use newsml::NewsItem;

use crate::node::NewsWireNode;

/// An XML-RPC value (the subset the gateway methods use).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `<int>` / `<i4>`.
    Int(i64),
    /// `<string>`.
    Str(String),
    /// `<boolean>`.
    Bool(bool),
    /// `<array>`.
    Array(Vec<Value>),
}

impl Value {
    fn to_element(&self) -> Element {
        let inner = match self {
            Value::Int(i) => Element::new("int").with_text(i.to_string()),
            Value::Str(s) => Element::new("string").with_text(s.clone()),
            Value::Bool(b) => Element::new("boolean").with_text(if *b { "1" } else { "0" }),
            Value::Array(items) => {
                let mut data = Element::new("data");
                for item in items {
                    data = data.with_child(item.to_element());
                }
                Element::new("array").with_child(data)
            }
        };
        Element::new("value").with_child(inner)
    }

    fn from_element(value: &Element) -> Result<Value, RpcError> {
        if value.name != "value" {
            return Err(RpcError::malformed("expected <value>"));
        }
        let Some(inner) = value.elements().next() else {
            // Bare text inside <value> defaults to string, per the spec.
            return Ok(Value::Str(value.text()));
        };
        match inner.name.as_str() {
            "int" | "i4" => {
                inner.text().parse().map(Value::Int).map_err(|_| RpcError::malformed("bad <int>"))
            }
            "string" => Ok(Value::Str(inner.text())),
            "boolean" => match inner.text().as_str() {
                "1" => Ok(Value::Bool(true)),
                "0" => Ok(Value::Bool(false)),
                _ => Err(RpcError::malformed("bad <boolean>")),
            },
            "array" => {
                let data =
                    inner.child("data").ok_or_else(|| RpcError::malformed("array missing data"))?;
                data.elements().map(Value::from_element).collect::<Result<_, _>>().map(Value::Array)
            }
            other => Err(RpcError::malformed(format!("unsupported type <{other}>"))),
        }
    }
}

/// A parsed `<methodCall>`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCall {
    /// Method name, e.g. `newswire.latest`.
    pub method: String,
    /// Positional parameters.
    pub params: Vec<Value>,
}

impl MethodCall {
    /// Creates a call.
    pub fn new(method: impl Into<String>, params: Vec<Value>) -> Self {
        MethodCall { method: method.into(), params }
    }

    /// Encodes to XML-RPC request XML.
    pub fn to_xml(&self) -> String {
        let mut params = Element::new("params");
        for p in &self.params {
            params = params.with_child(Element::new("param").with_child(p.to_element()));
        }
        Element::new("methodCall")
            .with_child(Element::new("methodName").with_text(self.method.clone()))
            .with_child(params)
            .to_xml()
    }

    /// Decodes from XML-RPC request XML.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError`] on malformed XML or request shape.
    pub fn from_xml(xml: &str) -> Result<MethodCall, RpcError> {
        let root = parse(xml)?;
        if root.name != "methodCall" {
            return Err(RpcError::malformed("expected <methodCall>"));
        }
        let method = root
            .child("methodName")
            .map(|m| m.text())
            .filter(|m| !m.is_empty())
            .ok_or_else(|| RpcError::malformed("missing <methodName>"))?;
        let mut params = Vec::new();
        if let Some(ps) = root.child("params") {
            for p in ps.children_named("param") {
                let v =
                    p.child("value").ok_or_else(|| RpcError::malformed("param missing value"))?;
                params.push(Value::from_element(v)?);
            }
        }
        Ok(MethodCall { method, params })
    }
}

/// A method response: a value, or a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful result.
    Ok(Value),
    /// XML-RPC fault with code and message.
    Fault(i64, String),
}

impl Response {
    /// Encodes to XML-RPC response XML.
    pub fn to_xml(&self) -> String {
        match self {
            Response::Ok(v) => Element::new("methodResponse")
                .with_child(
                    Element::new("params")
                        .with_child(Element::new("param").with_child(v.to_element())),
                )
                .to_xml(),
            Response::Fault(code, msg) => Element::new("methodResponse")
                .with_child(
                    Element::new("fault").with_child(
                        Element::new("value").with_child(
                            Element::new("struct")
                                .with_child(
                                    Element::new("member")
                                        .with_child(Element::new("name").with_text("faultCode"))
                                        .with_child(Value::Int(*code).to_element()),
                                )
                                .with_child(
                                    Element::new("member")
                                        .with_child(Element::new("name").with_text("faultString"))
                                        .with_child(Value::Str(msg.clone()).to_element()),
                                ),
                        ),
                    ),
                )
                .to_xml(),
        }
    }
}

/// Gateway failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcError {
    /// Fault code (−32700 parse error, −32601 unknown method, −32602 bad
    /// params, 1 application error — the usual XML-RPC conventions).
    pub code: i64,
    /// Message.
    pub message: String,
}

impl RpcError {
    fn malformed(m: impl Into<String>) -> Self {
        RpcError { code: -32700, message: m.into() }
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml-rpc error {}: {}", self.code, self.message)
    }
}
impl std::error::Error for RpcError {}

impl From<ParseXmlError> for RpcError {
    fn from(e: ParseXmlError) -> Self {
        RpcError::malformed(e.to_string())
    }
}

/// Dispatches one XML-RPC request against a node.
///
/// `publish` is invoked for `newswire.publish` with the decoded item; the
/// host (simulation driver or HTTP server) turns it into a
/// `PublishRequest` for the node.
pub fn dispatch<F>(node: &NewsWireNode, request_xml: &str, mut publish: F) -> String
where
    F: FnMut(NewsItem),
{
    let call = match MethodCall::from_xml(request_xml) {
        Ok(c) => c,
        Err(e) => return Response::Fault(e.code, e.message).to_xml(),
    };
    let resp = match call.method.as_str() {
        "newswire.publish" => match call.params.as_slice() {
            [Value::Str(nitf)] => match newsml::from_nitf_xml(nitf) {
                Ok(item) => {
                    let guid = item.id.to_string();
                    publish(item);
                    Response::Ok(Value::Str(guid))
                }
                Err(e) => Response::Fault(-32602, format!("invalid nitf: {e}")),
            },
            _ => Response::Fault(-32602, "newswire.publish expects one string".into()),
        },
        "newswire.latest" => match call.params.as_slice() {
            [Value::Int(n)] if *n >= 0 => {
                let items = node.cache.snapshot(*n as usize);
                Response::Ok(Value::Array(
                    items.iter().map(|i| Value::Str(newsml::to_nitf_xml(i))).collect(),
                ))
            }
            _ => Response::Fault(-32602, "newswire.latest expects a non-negative int".into()),
        },
        "newswire.subscriptions" => Response::Ok(Value::Array(
            node.subscription.bloom_keys().into_iter().map(Value::Str).collect(),
        )),
        other => Response::Fault(-32601, format!("unknown method `{other}`")),
    };
    resp.to_xml()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // fills a cache without a network
mod tests {
    use super::*;
    use crate::config::NewsWireConfig;
    use crate::subscription::Subscription;
    use astrolabe::{Agent, Config, TrustRegistry, ZoneLayout};
    use newsml::{Category, PublisherId};
    use std::sync::Arc;

    fn node() -> NewsWireNode {
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n =
            NewsWireNode::new(agent, NewsWireConfig::tech_news(), Arc::new(TrustRegistry::new(1)));
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(0), Category::Technology);
        n.set_subscription(sub);
        n
    }

    #[test]
    fn call_roundtrip() {
        let call = MethodCall::new(
            "newswire.latest",
            vec![Value::Int(5), Value::Str("x".into()), Value::Bool(true)],
        );
        let back = MethodCall::from_xml(&call.to_xml()).unwrap();
        assert_eq!(back, call);
    }

    #[test]
    fn array_roundtrip() {
        let call = MethodCall::new(
            "m",
            vec![Value::Array(vec![Value::Int(1), Value::Array(vec![Value::Str("s".into())])])],
        );
        assert_eq!(MethodCall::from_xml(&call.to_xml()).unwrap(), call);
    }

    #[test]
    fn publish_dispatch_decodes_nitf() {
        let n = node();
        let item = newsml::NewsItem::builder(PublisherId(0), 9)
            .headline("Via XML-RPC")
            .category(Category::Technology)
            .build();
        let call =
            MethodCall::new("newswire.publish", vec![Value::Str(newsml::to_nitf_xml(&item))]);
        let mut published = Vec::new();
        let resp = dispatch(&n, &call.to_xml(), |i| published.push(i));
        assert_eq!(published, vec![item]);
        assert!(resp.contains("p0:9"), "{resp}");
        assert!(!resp.contains("fault"));
    }

    #[test]
    fn latest_returns_cached_items() {
        let mut n = node();
        for seq in 0..3 {
            let item = newsml::NewsItem::builder(PublisherId(0), seq)
                .headline(format!("h{seq}"))
                .category(Category::Technology)
                .build();
            n.cache.insert(item, simnet::SimTime::from_secs(seq));
        }
        let call = MethodCall::new("newswire.latest", vec![Value::Int(2)]);
        let resp = dispatch(&n, &call.to_xml(), |_| {});
        assert_eq!(resp.matches("&lt;nitf&gt;").count(), 2, "{resp}");
    }

    #[test]
    fn subscriptions_lists_bloom_keys() {
        let n = node();
        let call = MethodCall::new("newswire.subscriptions", vec![]);
        let resp = dispatch(&n, &call.to_xml(), |_| {});
        assert!(resp.contains("p0/technology"));
    }

    #[test]
    fn faults_for_bad_input() {
        let n = node();
        let resp = dispatch(&n, "<not-xmlrpc/>", |_| {});
        assert!(resp.contains("faultCode"));
        let resp = dispatch(&n, &MethodCall::new("no.such.method", vec![]).to_xml(), |_| {});
        assert!(resp.contains("-32601"));
        let resp = dispatch(
            &n,
            &MethodCall::new("newswire.publish", vec![Value::Int(5)]).to_xml(),
            |_| {},
        );
        assert!(resp.contains("-32602"));
        let resp = dispatch(
            &n,
            &MethodCall::new("newswire.publish", vec![Value::Str("<junk/>".into())]).to_xml(),
            |_| {},
        );
        assert!(resp.contains("invalid nitf"));
    }

    #[test]
    fn bare_text_value_is_string() {
        let xml = "<methodCall><methodName>m</methodName><params><param>\
                   <value>plain</value></param></params></methodCall>";
        let call = MethodCall::from_xml(xml).unwrap();
        assert_eq!(call.params, vec![Value::Str("plain".into())]);
    }
}
