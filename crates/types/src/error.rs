//! Error types for the data-model layer.

use std::fmt;

use crate::DataType;

/// Errors raised while building or resolving schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A schema declared the same field name twice.
    DuplicateField {
        /// Schema being constructed.
        schema: String,
        /// Offending field name.
        field: String,
    },
    /// A field lookup failed.
    UnknownField {
        /// Schema searched.
        schema: String,
        /// Missing field name.
        field: String,
    },
    /// A stream lookup in the catalog failed.
    UnknownStream {
        /// Missing stream name.
        stream: String,
    },
    /// A stream was registered twice in the catalog.
    DuplicateStream {
        /// Offending stream name.
        stream: String,
    },
    /// Wire decoding encountered malformed bytes.
    Corrupt(&'static str),
    /// Wire decoding ran out of bytes mid-value.
    Truncated {
        /// What was being decoded when the buffer ran dry.
        context: &'static str,
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A frame header's declared payload length disagreed with the
    /// bytes actually present.
    FrameLengthMismatch {
        /// The payload length the header declared.
        declared: usize,
        /// Bytes actually following the header.
        actual: usize,
    },
    /// An encoder was asked to emit a frame whose payload exceeds what
    /// the `u32` header fields can describe. Emitting it anyway would
    /// silently truncate the length word and put a corrupt frame on the
    /// wire; the encoder refuses instead.
    FrameTooLarge {
        /// What was being encoded (`"frame payload"`, `"tuple count"`).
        context: &'static str,
        /// The size that overflowed the header field.
        size: usize,
        /// The largest size the header field can carry.
        limit: usize,
    },
    /// Wire decoding met a value tag outside the known set.
    BadTag(u8),
    /// A value, or a lane, whose kind is not the type the schema
    /// declares for its column: data that enters a plan (a trace row, a
    /// source batch, a boundary frame, migrated state) is checked once,
    /// where it enters.
    KindMismatch {
        /// The column, by name.
        column: String,
        /// The row: the trace row, or the first non-NULL row of a lane
        /// (0 when it has none).
        row: usize,
        /// The kind the schema declares.
        expected: DataType,
        /// The kind found.
        found: DataType,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::DuplicateField { schema, field } => {
                write!(f, "duplicate field '{field}' in schema '{schema}'")
            }
            TypeError::UnknownField { schema, field } => {
                write!(f, "unknown field '{field}' in schema '{schema}'")
            }
            TypeError::UnknownStream { stream } => write!(f, "unknown stream '{stream}'"),
            TypeError::DuplicateStream { stream } => {
                write!(f, "stream '{stream}' already registered")
            }
            TypeError::Corrupt(what) => write!(f, "corrupt tuple encoding: {what}"),
            TypeError::Truncated {
                context,
                need,
                have,
            } => {
                write!(
                    f,
                    "truncated wire data: {context} needs {need} bytes, {have} remain"
                )
            }
            TypeError::FrameLengthMismatch { declared, actual } => {
                write!(
                    f,
                    "frame length mismatch: header declares {declared} payload bytes, {actual} present"
                )
            }
            TypeError::FrameTooLarge {
                context,
                size,
                limit,
            } => {
                write!(
                    f,
                    "frame too large: {context} is {size}, wire header caps it at {limit}"
                )
            }
            TypeError::BadTag(tag) => write!(f, "unknown wire value tag {tag}"),
            TypeError::KindMismatch {
                column,
                row,
                expected,
                found,
            } => write!(
                f,
                "row {row}, column '{column}': a {found} value where the schema declares {expected}"
            ),
        }
    }
}

impl std::error::Error for TypeError {}

/// Result alias for this crate.
pub type TypeResult<T> = Result<T, TypeError>;
