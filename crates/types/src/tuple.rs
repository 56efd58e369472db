//! Tuples: fixed-arity rows of [`Value`]s.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Value;

/// A row flowing through the stream engine.
///
/// Tuples are schema-less at runtime: field positions are resolved once,
/// at plan-compile time, so the hot path indexes by position only. This
/// mirrors Gigascope's compiled-query design where per-tuple work must fit
/// in a few dozen cycles.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Creates an empty tuple with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Tuple {
            values: Vec::with_capacity(cap),
        }
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field at position `idx`; panics if out of bounds (positions are
    /// validated at plan-compile time).
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Field at position `idx`, or `None` when out of bounds.
    #[inline]
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Appends a value.
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Concatenates two tuples (used by join output construction).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Empties the tuple, retaining its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Projects the tuple onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple {
            values: positions.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple { values }
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience macro for building tuples in tests and examples.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let a = tuple![1u64, 2u64];
        let b = tuple![3u64];
        let c = a.concat(&b);
        assert_eq!(c, tuple![1u64, 2u64, 3u64]);
    }

    #[test]
    fn project_selects_positions() {
        let t = tuple![10u64, 20u64, 30u64];
        assert_eq!(t.project(&[2, 0]), tuple![30u64, 10u64]);
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tuple![1u64, true].to_string(), "(1, true)");
    }

    #[test]
    fn macro_coerces_types() {
        let t = tuple![1u64, -5i64, false, "x"];
        assert_eq!(t.get(0), &Value::UInt(1));
        assert_eq!(t.get(1), &Value::Int(-5));
        assert_eq!(t.get(2), &Value::Bool(false));
        assert_eq!(t.get(3), &Value::from("x"));
    }
}
