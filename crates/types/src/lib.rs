#![warn(missing_docs)]

//! Core data model for the query-aware partitioning DSMS.
//!
//! This crate defines the fundamental vocabulary shared by every layer of
//! the system: [`Value`]s, [`Tuple`]s, [`Schema`]s with *ordered* (temporal)
//! attribute metadata, and the [`Catalog`] of base stream schemas.
//!
//! The design follows the Gigascope data model described in the paper:
//! a stream is a relation whose schema may mark one or more attributes as
//! *ordered* (e.g. `time increasing`). Ordered attributes are what make
//! tumbling-window evaluation of otherwise blocking operators (aggregation,
//! join) possible, and — crucially for partitioning analysis — they are
//! excluded from partitioning sets (Section 3.5.1 of the paper).

mod catalog;
pub mod codec;
mod column;
mod control;
mod error;
mod schema;
mod tuple;
mod udaf;
mod value;
mod wire;

pub use catalog::{pkt_schema, tcp_schema, Catalog};
pub use codec::{Reader, Wire, Writer};
pub use column::{Column, ColumnBatch, ColumnData, SelectionVector};
pub use control::{
    control_payload_len, decode_control, encode_control, ControlFrame, CONTROL_HEADER_LEN,
    ERROR_DEPLOY, ERROR_EXEC, ERROR_LINK, ERROR_VERSION, MAX_CONTROL_PAYLOAD, PROTOCOL_VERSION,
};
pub use error::{TypeError, TypeResult};
pub use schema::{DataType, Field, Schema, Temporality};
pub use tuple::Tuple;
pub use udaf::{Udaf, UdafRegistry, UdafState};
pub use value::{ArcStr, Value};
pub use wire::{
    decode_column_batch, decode_tuple, encode_column_batch, encode_column_rows, encode_tuple,
    encoded_column_batch_len, encoded_len, estimated_tuple_size, frame_rows, COLUMNAR_FLAG,
    FRAME_HEADER_LEN,
};

// Downstream crates (exec frame ingestion, the cluster transport) take
// and return wire buffers; re-export the byte types so they don't need
// their own dependency edge on the vendored crate.
pub use bytes::{Buf, BufMut, Bytes, BytesMut};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_matches_cost_model_estimator() {
        assert_eq!(estimated_tuple_size(0), 2.0);
        assert_eq!(estimated_tuple_size(4), 38.0);
        for arity in [0, 1, 4, 9] {
            let numeric = Tuple::new(vec![Value::UInt(7); arity]);
            assert_eq!(estimated_tuple_size(arity), encoded_len(&numeric) as f64);
        }
    }
}
