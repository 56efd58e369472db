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
    decode_column_batch, decode_tuple, dictionary_lanes, encode_column_batch, encode_column_rows,
    encode_tuple, encoded_column_batch_len, encoded_len, estimated_tuple_size, frame_rows,
    COLUMNAR_FLAG, FRAME_HEADER_LEN,
};

// Downstream crates (exec frame ingestion, the cluster transport) take
// and return wire buffers; re-export the byte types so they don't need
// their own dependency edge on the vendored crate.
pub use bytes::{Buf, BufMut, Bytes, BytesMut};

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the bytes the calling thread allocates while a count is
    /// open ([`allocated_by`]); the harness runs tests on parallel
    /// threads, and only the counting thread's count.
    struct CountingAlloc;

    thread_local! {
        static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        static ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn charge(bytes: usize) {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCATED.with(|a| a.set(a.get() + bytes));
            }
        });
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // so `System`'s guarantees are this allocator's. Counting reads and
    // writes two const-initialized thread-local `Cell`s, which neither
    // allocate nor re-enter the allocator.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            charge(layout.size());
            std::alloc::System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            charge(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
            charge(size.saturating_sub(layout.size()));
            std::alloc::System.realloc(ptr, layout, size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Runs `f` and returns its result with the bytes it allocated on
    /// this thread (a `realloc` counts its growth).
    pub(crate) fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        ALLOCATED.with(|a| a.set(0));
        COUNTING.with(|on| on.set(true));
        let out = f();
        COUNTING.with(|on| on.set(false));
        (out, ALLOCATED.with(std::cell::Cell::get))
    }

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
