//! Runtime values flowing through the stream engine.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::DataType;

/// A shared, immutable string one pointer wide, so a [`Value`] is two
/// words. It compares, orders, hashes and prints as the `str` it holds;
/// a clone is a reference-count bump.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcStr(Arc<Box<str>>);

impl ArcStr {
    /// Whether `a` and `b` share one allocation (then they are equal).
    #[inline]
    pub fn ptr_eq(a: &ArcStr, b: &ArcStr) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for ArcStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for ArcStr {
    fn as_ref(&self) -> &str {
        self
    }
}

impl Borrow<str> for ArcStr {
    fn borrow(&self) -> &str {
        self
    }
}

impl From<&str> for ArcStr {
    fn from(s: &str) -> Self {
        ArcStr(Arc::new(Box::from(s)))
    }
}

impl From<String> for ArcStr {
    fn from(s: String) -> Self {
        ArcStr(Arc::new(s.into_boxed_str()))
    }
}

impl fmt::Debug for ArcStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for ArcStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// A single attribute value inside a [`crate::Tuple`].
///
/// The network-monitoring domain is dominated by unsigned machine words
/// (IP addresses, ports, packet lengths, TCP flags, timestamps), so the
/// representation is deliberately small and `Copy`-friendly except for
/// strings, which are reference counted so tuple cloning stays cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL (produced e.g. by outer-join padding, Section 5.3).
    Null,
    /// Unsigned 64-bit integer; the native type of all packet-header fields.
    UInt(u64),
    /// Signed 64-bit integer; results of subtraction and signed arithmetic.
    Int(i64),
    /// Boolean, produced by predicates.
    Bool(bool),
    /// Shared string (protocol names, labels).
    Str(ArcStr),
}

impl Value {
    /// The value's kind; `None` for NULL, which a column of any kind
    /// holds.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::UInt(_) => Some(DataType::UInt),
            Value::Int(_) => Some(DataType::Int),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Returns the value as an unsigned integer when it is numeric.
    ///
    /// Signed values are accepted when non-negative; this mirrors GSQL's
    /// permissive coercion between integer widths.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            Value::Bool(b) => Some(u64::from(*b)),
            _ => None,
        }
    }

    /// Returns the value as a signed integer when it is numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::UInt(v) => i64::try_from(*v).ok(),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Returns the value as a boolean. Numeric values follow the C
    /// convention (non-zero is true), matching GSQL predicate semantics.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::UInt(v) => Some(*v != 0),
            Value::Int(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// Whether this value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering used by MIN/MAX aggregates and ORDER-insensitive
    /// result comparison in tests. NULL sorts first; values of different
    /// kinds order by kind tag, mirroring a deterministic (if arbitrary)
    /// cross-type collation.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn kind(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                UInt(_) | Int(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (UInt(a), UInt(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (UInt(a), Int(b)) => cmp_u_i(*a, *b),
            (Int(a), UInt(b)) => cmp_u_i(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => kind(a).cmp(&kind(b)),
        }
    }
}

fn cmp_u_i(u: u64, i: i64) -> Ordering {
    if i < 0 {
        Ordering::Greater
    } else {
        u.cmp(&(i as u64))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(u64::from(v))
    }
}

impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::UInt(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(ArcStr::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::UInt(7).as_u64(), Some(7));
        assert_eq!(Value::Int(7).as_u64(), Some(7));
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert_eq!(Value::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Value::Bool(true).as_u64(), Some(1));
        assert_eq!(Value::Null.as_u64(), None);
    }

    #[test]
    fn bool_coercion_follows_c_convention() {
        assert_eq!(Value::UInt(0).as_bool(), Some(false));
        assert_eq!(Value::UInt(3).as_bool(), Some(true));
        assert_eq!(Value::Int(-3).as_bool(), Some(true));
        assert_eq!(Value::Str(ArcStr::from("x")).as_bool(), None);
    }

    #[test]
    fn total_cmp_orders_mixed_sign_integers() {
        assert_eq!(Value::UInt(5).total_cmp(&Value::Int(-1)), Ordering::Greater);
        assert_eq!(Value::Int(-1).total_cmp(&Value::UInt(0)), Ordering::Less);
        assert_eq!(Value::UInt(5).total_cmp(&Value::Int(5)), Ordering::Equal);
    }

    #[test]
    fn total_cmp_null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::UInt(0)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn value_is_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn shared_strings_act_as_str() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let (a, b) = (ArcStr::from("tcp"), ArcStr::from(String::from("tcp")));
        assert!(a == b && !ArcStr::ptr_eq(&a, &b) && ArcStr::ptr_eq(&a, &a.clone()));
        assert_eq!(hash(&|s| a.hash(s)), hash(&|s| "tcp".hash(s)));
        assert!(ArcStr::from("ab") < ArcStr::from("b"));
        assert_eq!(
            (format!("{a}"), format!("{a:?}")),
            ("tcp".into(), "\"tcp\"".into())
        );
        assert_eq!(format!("{:?}", Value::from("x")), "Str(\"x\")");
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::UInt(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("tcp").to_string(), "'tcp'");
    }
}
