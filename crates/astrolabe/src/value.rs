//! Attribute values.
//!
//! Rows in Astrolabe tables map attribute names to typed values. The type
//! set covers what the NewsWire stack stores: numbers and strings, node-id
//! sets (multicast representatives), bit arrays (Bloom/category subscription
//! summaries), and raw bytes.

use std::collections::BTreeSet;
use std::fmt;

use filters::BitArray;

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// 64-bit signed integer (also carries category masks bit-wise).
    Int(i64),
    /// Double-precision float (loads, rates).
    Float(f64),
    /// UTF-8 string (names, mobile aggregation code).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A set of 64-bit ids (multicast representatives).
    Set(BTreeSet<u64>),
    /// A bit array (Bloom filters, subscription masks).
    Bits(BitArray),
    /// Opaque bytes.
    Bytes(Vec<u8>),
}

impl AttrValue {
    /// Human-readable type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            AttrValue::Int(_) => "int",
            AttrValue::Float(_) => "float",
            AttrValue::Str(_) => "str",
            AttrValue::Bool(_) => "bool",
            AttrValue::Set(_) => "set",
            AttrValue::Bits(_) => "bits",
            AttrValue::Bytes(_) => "bytes",
        }
    }

    /// Numeric view: `Int` and `Float` coerce to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (exact only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (for traffic accounting).
    pub fn wire_size(&self) -> usize {
        1 + match self {
            AttrValue::Int(_) | AttrValue::Float(_) => 8,
            AttrValue::Bool(_) => 1,
            AttrValue::Str(s) => 2 + s.len(),
            AttrValue::Set(s) => 2 + s.len() * 8,
            AttrValue::Bits(b) => 2 + b.size_bytes(),
            AttrValue::Bytes(b) => 2 + b.len(),
        }
    }

    /// Total order across values of the *same* type; numeric types compare
    /// across `Int`/`Float`. Returns `None` for incomparable types.
    pub fn partial_cmp_value(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Set(s) => {
                let items: Vec<String> = s.iter().take(8).map(|v| v.to_string()).collect();
                let more = if s.len() > 8 { ",…" } else { "" };
                write!(f, "{{{}{more}}}", items.join(","))
            }
            AttrValue::Bits(b) => write!(f, "{b}"),
            AttrValue::Bytes(b) => write!(f, "bytes[{}]", b.len()),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<BitArray> for AttrValue {
    fn from(v: BitArray) -> Self {
        AttrValue::Bits(v)
    }
}
impl From<BTreeSet<u64>> for AttrValue {
    fn from(v: BTreeSet<u64>) -> Self {
        AttrValue::Set(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(AttrValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(AttrValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from(true).as_bool(), Some(true));
        assert_eq!(AttrValue::Int(3).as_bool(), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        use std::cmp::Ordering::*;
        assert_eq!(AttrValue::Int(2).partial_cmp_value(&AttrValue::Float(2.5)), Some(Less));
        assert_eq!(AttrValue::Float(3.0).partial_cmp_value(&AttrValue::Int(3)), Some(Equal));
        assert_eq!(AttrValue::from("a").partial_cmp_value(&AttrValue::from("b")), Some(Less));
        assert_eq!(AttrValue::from("a").partial_cmp_value(&AttrValue::Int(1)), None);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(AttrValue::Int(1).wire_size(), 9);
        assert_eq!(AttrValue::from("abc").wire_size(), 6);
        let set: BTreeSet<u64> = [1, 2].into_iter().collect();
        assert_eq!(AttrValue::from(set).wire_size(), 19);
    }

    #[test]
    fn display_compact() {
        let set: BTreeSet<u64> = [3, 1].into_iter().collect();
        assert_eq!(AttrValue::from(set).to_string(), "{1,3}");
        assert_eq!(AttrValue::Int(-4).to_string(), "-4");
        assert_eq!(AttrValue::from("hi").to_string(), "\"hi\"");
        assert_eq!(AttrValue::Bytes(vec![1, 2, 3]).to_string(), "bytes[3]");
    }

    #[test]
    fn type_names() {
        assert_eq!(AttrValue::Int(0).type_name(), "int");
        assert_eq!(AttrValue::Bits(BitArray::new(8)).type_name(), "bits");
    }
}
