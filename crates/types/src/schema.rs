//! Stream schemas with ordered-attribute (temporal) metadata.

use std::fmt;

use crate::{TypeError, TypeResult};

/// Logical type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Unsigned 64-bit integer (IPs, ports, lengths, flags, timestamps).
    UInt,
    /// Signed 64-bit integer.
    Int,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::UInt => "uint",
            DataType::Int => "int",
            DataType::Bool => "bool",
            DataType::Str => "string",
        };
        f.write_str(s)
    }
}

/// Ordering declaration of an attribute, as in the Gigascope schema
/// `PKT(time increasing, srcIP, destIP, len)`.
///
/// Tumbling-window query evaluation (Section 3.1) keys off attributes
/// declared `Increasing`/`Decreasing`: a window closes when the ordered
/// attribute advances past the window boundary. Partitioning-set
/// inference *excludes* temporal attributes (Section 3.5.1) because
/// hashing on them reshuffles group-to-host allocation every epoch and
/// breaks pane-based sliding-window evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Temporality {
    /// Not ordered: a regular data attribute.
    #[default]
    None,
    /// Monotonically non-decreasing across the stream.
    Increasing,
    /// Monotonically non-increasing across the stream.
    Decreasing,
}

impl Temporality {
    /// Whether the attribute carries any ordering guarantee.
    pub fn is_temporal(self) -> bool {
        !matches!(self, Temporality::None)
    }
}

/// A named, typed field of a stream schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    data_type: DataType,
    temporality: Temporality,
}

impl Field {
    /// Creates a plain (non-temporal) field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            temporality: Temporality::None,
        }
    }

    /// Creates a field with an ordering declaration.
    pub fn temporal(
        name: impl Into<String>,
        data_type: DataType,
        temporality: Temporality,
    ) -> Self {
        Field {
            name: name.into(),
            data_type,
            temporality,
        }
    }

    /// Field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field logical type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Checks the kind of a value found at `row` (`None` for NULL,
    /// which every field holds) against the field's type: another kind
    /// is a [`TypeError::KindMismatch`] naming the row and the field.
    pub fn check_kind(&self, row: usize, found: Option<DataType>) -> TypeResult<()> {
        match found {
            Some(found) if found != self.data_type => Err(TypeError::KindMismatch {
                column: self.name.clone(),
                row,
                expected: self.data_type,
                found,
            }),
            _ => Ok(()),
        }
    }

    /// Ordering declaration.
    pub fn temporality(&self) -> Temporality {
        self.temporality
    }
}

/// An ordered list of fields describing the tuples of one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema. Field names must be unique (case-insensitive,
    /// since GSQL identifiers are case-insensitive).
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> TypeResult<Self> {
        let name = name.into();
        for (i, f) in fields.iter().enumerate() {
            if fields[..i]
                .iter()
                .any(|g| g.name().eq_ignore_ascii_case(f.name()))
            {
                return Err(TypeError::DuplicateField {
                    schema: name,
                    field: f.name().to_string(),
                });
            }
        }
        Ok(Schema { name, fields })
    }

    /// Stream / query name this schema describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of a field by case-insensitive name.
    pub fn index_of(&self, field: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name().eq_ignore_ascii_case(field))
    }

    /// Field by case-insensitive name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field by position.
    pub fn field_at(&self, idx: usize) -> Option<&Field> {
        self.fields.get(idx)
    }

    /// Resolves a field name to its index, producing a typed error for
    /// diagnostics when absent.
    pub fn resolve(&self, field: &str) -> TypeResult<usize> {
        self.index_of(field).ok_or_else(|| TypeError::UnknownField {
            schema: self.name.clone(),
            field: field.to_string(),
        })
    }

    /// Indices of all temporal (ordered) fields.
    pub fn temporal_indices(&self) -> Vec<usize> {
        self.fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.temporality().is_temporal())
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns a copy of this schema under a different name (used when a
    /// named query or a FROM-alias re-exposes a stream).
    pub fn renamed(&self, name: impl Into<String>) -> Schema {
        Schema {
            name: name.into(),
            fields: self.fields.clone(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name(), field.data_type())?;
            match field.temporality() {
                Temporality::Increasing => write!(f, " increasing")?,
                Temporality::Decreasing => write!(f, " decreasing")?,
                Temporality::None => {}
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Schema {
        Schema::new(
            "PKT",
            vec![
                Field::temporal("time", DataType::UInt, Temporality::Increasing),
                Field::new("srcIP", DataType::UInt),
                Field::new("destIP", DataType::UInt),
                Field::new("len", DataType::UInt),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = pkt();
        assert_eq!(s.index_of("srcip"), Some(1));
        assert_eq!(s.index_of("SRCIP"), Some(1));
        assert_eq!(s.index_of("nosuch"), None);
    }

    #[test]
    fn duplicate_fields_rejected() {
        let err = Schema::new(
            "S",
            vec![
                Field::new("a", DataType::UInt),
                Field::new("A", DataType::Int),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::DuplicateField { .. }));
    }

    #[test]
    fn temporal_indices_found() {
        assert_eq!(pkt().temporal_indices(), vec![0]);
    }

    #[test]
    fn resolve_reports_schema_and_field() {
        let err = pkt().resolve("bogus").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("PKT") && msg.contains("bogus"), "{msg}");
    }

    #[test]
    fn display_matches_gigascope_notation() {
        assert_eq!(
            pkt().to_string(),
            "PKT(time uint increasing, srcIP uint, destIP uint, len uint)"
        );
    }

    #[test]
    fn renamed_keeps_fields() {
        let s = pkt().renamed("S1");
        assert_eq!(s.name(), "S1");
        assert_eq!(s.arity(), 4);
    }
}
