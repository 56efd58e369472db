//! Columnar (structure-of-arrays) batches for the vectorized hot path.
//!
//! A [`ColumnBatch`] holds the same tuples as a `Vec<Tuple>` but
//! transposed: one typed lane per attribute, so an operator touching a
//! single column walks a contiguous `&[u64]` instead of chasing a
//! `Value` enum per field per row. The Gigascope premise (Section 4.2.1
//! of the paper) is that per-tuple CPU on the low tier is the binding
//! resource; the columnar layout is what lets selection, projection and
//! group-key hashing amortize dispatch over a whole batch.
//!
//! Three pieces:
//!
//! - [`Column`] — one attribute: a typed lane ([`ColumnData`]) plus a
//!   null mask. The first non-null value pushed fixes the lane type,
//!   and every later one must have the same kind: the plan gives each
//!   column one [`DataType`](crate::DataType), and data is checked
//!   against it where it enters ([`ColumnBatch::check_kinds`],
//!   [`ColumnBatch::push_checked_row`]), so a lane never holds two
//!   kinds.
//!   Row→column→row is the identity for rows of one kind per column.
//! - [`ColumnBatch`] — a fixed-arity set of equal-length columns with
//!   row↔column converters for the engine boundary and lane-to-lane
//!   appends ([`ColumnBatch::append_range`],
//!   [`ColumnBatch::append_gather`]) for the operators that buffer
//!   (join, merge).
//! - [`SelectionVector`] — the indices of surviving rows, the unit of
//!   communication between predicate kernels and operators: a filter is
//!   a refinement of the selection, not a copy of the data.

use crate::{ArcStr, DataType, Field, Tuple, TypeResult, Value};

/// The source rows of a lane append: a contiguous range (a slice copy)
/// or an arbitrary gather list.
#[derive(Clone, Copy)]
enum Rows<'a> {
    Range(usize, usize),
    Gather(&'a [u32]),
}

impl Rows<'_> {
    fn len(self) -> usize {
        match self {
            Rows::Range(s, e) => e - s,
            Rows::Gather(idx) => idx.len(),
        }
    }

    fn any(self, mut f: impl FnMut(usize) -> bool) -> bool {
        match self {
            Rows::Range(s, e) => (s..e).any(f),
            Rows::Gather(idx) => idx.iter().any(|&i| f(i as usize)),
        }
    }

    fn all(self, mut f: impl FnMut(usize) -> bool) -> bool {
        !self.any(|i| !f(i))
    }

    /// Appends the rows of `src` to `dst`: one slice copy for a range.
    fn extend<T: Clone>(self, dst: &mut Vec<T>, src: &[T]) {
        match self {
            Rows::Range(s, e) => dst.extend_from_slice(&src[s..e]),
            Rows::Gather(idx) => dst.extend(idx.iter().map(|&i| src[i as usize].clone())),
        }
    }
}

/// The typed lane backing one [`Column`].
///
/// Lanes hold a *placeholder* at null positions (0, `false`, `""`);
/// the authoritative null information lives in the column's null mask.
/// A lane holds one kind: the plan's type for its column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Unsigned 64-bit lane — the native type of packet-header fields.
    UInt(Vec<u64>),
    /// Signed 64-bit lane.
    Int(Vec<i64>),
    /// Boolean lane.
    Bool(Vec<bool>),
    /// Interned-string lane.
    Str(Vec<ArcStr>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::UInt(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            ColumnData::UInt(v) => v.clear(),
            ColumnData::Int(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Str(v) => v.clear(),
        }
    }

    /// The lane's kind.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::UInt(_) => DataType::UInt,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    /// An empty lane of the same type.
    fn empty_like(&self) -> ColumnData {
        match self {
            ColumnData::UInt(_) => ColumnData::UInt(Vec::new()),
            ColumnData::Int(_) => ColumnData::Int(Vec::new()),
            ColumnData::Bool(_) => ColumnData::Bool(Vec::new()),
            ColumnData::Str(_) => ColumnData::Str(Vec::new()),
        }
    }

    fn push_placeholder(&mut self) {
        match self {
            ColumnData::UInt(v) => v.push(0),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Str(v) => v.push(ArcStr::from("")),
        }
    }

    /// In-place compaction onto the (strictly increasing) selection.
    fn compact(&mut self, sel: &[u32]) {
        match self {
            ColumnData::UInt(v) => compact_lane(v, sel),
            ColumnData::Int(v) => compact_lane(v, sel),
            ColumnData::Bool(v) => compact_lane(v, sel),
            ColumnData::Str(v) => compact_lane(v, sel),
        }
    }
}

fn compact_lane<T: Clone>(lane: &mut Vec<T>, sel: &[u32]) {
    for (dst, &src) in sel.iter().enumerate() {
        let src = src as usize;
        if dst != src {
            lane[dst] = lane[src].clone();
        }
    }
    lane.truncate(sel.len());
}

/// One attribute of a [`ColumnBatch`]: a typed lane plus a null mask.
///
/// The null mask is empty while the column holds no NULLs (the common
/// case for packet-header fields), so the all-valid fast path costs one
/// `is_empty` check per batch, not per row.
#[derive(Debug, Clone, Default)]
pub struct Column {
    data: Option<ColumnData>,
    /// `nulls[i] == true` marks row `i` as SQL NULL. Empty means no row
    /// is NULL. Invariant: empty, or exactly `len()` entries.
    nulls: Vec<bool>,
    /// Row count. Tracked explicitly so an untyped (all-NULL so far)
    /// column needs no lane at all.
    len: usize,
}

impl Column {
    /// Creates an empty, untyped column.
    pub fn new() -> Self {
        Column::default()
    }

    /// Builds a column by pushing each value in turn (so the lane types
    /// itself exactly as incremental construction would).
    pub fn from_values(values: &[Value]) -> Self {
        let mut c = Column::new();
        for v in values {
            c.push(v);
        }
        c
    }

    /// Builds an untyped column of `n` SQL NULLs (no lane at all).
    pub fn all_null(n: usize) -> Self {
        Column {
            data: None,
            nulls: vec![true; n],
            len: n,
        }
    }

    /// Builds a column from raw parts produced by a decoder: a typed
    /// lane and a null mask (empty, or one flag per lane entry).
    ///
    /// # Panics
    /// When the mask is non-empty and its length disagrees with the
    /// lane's.
    pub fn from_parts(data: ColumnData, nulls: Vec<bool>) -> Self {
        let len = data.len();
        assert!(
            nulls.is_empty() || nulls.len() == len,
            "null mask length {} != lane length {len}",
            nulls.len()
        );
        Column {
            data: Some(data),
            nulls,
            len,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The typed lane, or `None` while the column is untyped (no
    /// non-NULL value has been pushed yet).
    #[inline]
    pub fn data(&self) -> Option<&ColumnData> {
        self.data.as_ref()
    }

    /// The lane's kind, or `None` while the column is untyped.
    #[inline]
    pub fn data_type(&self) -> Option<DataType> {
        self.data.as_ref().map(ColumnData::data_type)
    }

    /// The null mask: empty when no row is NULL, else one flag per row.
    #[inline]
    pub fn null_mask(&self) -> &[bool] {
        &self.nulls
    }

    /// Whether any row is NULL.
    #[inline]
    pub fn has_nulls(&self) -> bool {
        !self.nulls.is_empty()
    }

    /// Whether row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i).copied().unwrap_or(false)
    }

    /// The unsigned lane when the column is typed `UInt`.
    #[inline]
    pub fn uints(&self) -> Option<&[u64]> {
        match &self.data {
            Some(ColumnData::UInt(v)) => Some(v),
            _ => None,
        }
    }

    /// The signed lane when the column is typed `Int`.
    #[inline]
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.data {
            Some(ColumnData::Int(v)) => Some(v),
            _ => None,
        }
    }

    /// The boolean lane when the column is typed `Bool`.
    #[inline]
    pub fn bools(&self) -> Option<&[bool]> {
        match &self.data {
            Some(ColumnData::Bool(v)) => Some(v),
            _ => None,
        }
    }

    /// The string lane when the column is typed `Str`.
    #[inline]
    pub fn strs(&self) -> Option<&[ArcStr]> {
        match &self.data {
            Some(ColumnData::Str(v)) => Some(v),
            _ => None,
        }
    }

    /// Appends a value. A lane with no rows keeps its type only for a
    /// value of that kind: another kind types it afresh, a NULL leaves it
    /// untyped.
    ///
    /// # Panics
    /// When the value's kind is not the lane's: every entry point
    /// checks kinds against the plan first.
    pub fn push(&mut self, v: &Value) {
        self.push_reserving(v, 0);
    }

    /// Appends unsigned values, leaving the column as pushing each one
    /// as a [`Value::UInt`] would; onto an unsigned lane they go in one
    /// extend, with no per-value dispatch.
    pub fn extend_uints(&mut self, xs: impl IntoIterator<Item = u64>) {
        let mut xs = xs.into_iter();
        if !matches!(self.data, Some(ColumnData::UInt(_))) {
            // The first value types the lane as a push does.
            let Some(x) = xs.next() else { return };
            self.push(&Value::UInt(x));
        }
        let Some(ColumnData::UInt(lane)) = &mut self.data else {
            unreachable!("a push of a UInt leaves a UInt lane");
        };
        let at = lane.len();
        lane.extend(xs);
        let n = lane.len() - at;
        if !self.nulls.is_empty() {
            self.nulls.resize(self.len + n, false);
        }
        self.len += n;
    }

    /// [`Column::push`] for a column that expects `budget` rows: the
    /// push that types the lane allocates it at that size.
    fn push_reserving(&mut self, v: &Value, budget: usize) {
        // An empty lane holds no values to preserve: unless `v` is of
        // its kind, it goes untyped, as a fresh column is, whatever an
        // earlier use left.
        if self.len == 0 && self.data_type() != v.data_type() {
            self.data = None;
        }
        match v {
            Value::Null => {
                if self.nulls.is_empty() {
                    self.nulls.resize(self.len, false);
                }
                if let Some(data) = &mut self.data {
                    data.push_placeholder();
                }
                self.nulls.push(true);
                self.len += 1;
            }
            other => {
                self.push_non_null(other, budget);
                if !self.nulls.is_empty() {
                    self.nulls.push(false);
                }
                self.len += 1;
            }
        }
    }

    fn push_non_null(&mut self, v: &Value, budget: usize) {
        let data = self.data.get_or_insert_with(|| {
            let cap = budget.max(self.len);
            let mut lane = match v {
                Value::UInt(_) => ColumnData::UInt(Vec::with_capacity(cap)),
                Value::Int(_) => ColumnData::Int(Vec::with_capacity(cap)),
                Value::Bool(_) => ColumnData::Bool(Vec::with_capacity(cap)),
                Value::Str(_) => ColumnData::Str(Vec::with_capacity(cap)),
                Value::Null => unreachable!("push_non_null sees no NULLs"),
            };
            for _ in 0..self.len {
                lane.push_placeholder();
            }
            lane
        });
        match (data, v) {
            (ColumnData::UInt(l), Value::UInt(x)) => l.push(*x),
            (ColumnData::Int(l), Value::Int(x)) => l.push(*x),
            (ColumnData::Bool(l), Value::Bool(x)) => l.push(*x),
            (ColumnData::Str(l), Value::Str(x)) => l.push(ArcStr::clone(x)),
            (lane, v) => panic!("a {v:?} pushed onto a {} lane", lane.data_type()),
        }
    }

    /// Materializes row `i` as a [`Value`] (a reference-count bump for strings).
    ///
    /// # Panics
    /// When `i` is out of bounds.
    pub fn value(&self, i: usize) -> Value {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        if self.is_null(i) {
            return Value::Null;
        }
        match self.data.as_ref() {
            Some(ColumnData::UInt(l)) => Value::UInt(l[i]),
            Some(ColumnData::Int(l)) => Value::Int(l[i]),
            Some(ColumnData::Bool(l)) => Value::Bool(l[i]),
            Some(ColumnData::Str(l)) => Value::Str(ArcStr::clone(&l[i])),
            None => unreachable!("non-null row in an untyped column"),
        }
    }

    /// Empties the column, retaining lane type and capacity.
    pub fn clear(&mut self) {
        if let Some(d) = &mut self.data {
            d.clear();
        }
        self.nulls.clear();
        self.len = 0;
    }

    /// Compacts the column in place onto `sel` (strictly increasing row
    /// indices, all `< len()`). After the call the column holds exactly
    /// the selected rows, in order, with no allocation.
    pub fn compact(&mut self, sel: &[u32]) {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]), "selection not sorted");
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.len));
        if sel.len() == self.len {
            return;
        }
        if let Some(d) = &mut self.data {
            d.compact(sel);
        }
        if !self.nulls.is_empty() {
            compact_lane(&mut self.nulls, sel);
            if !self.nulls.iter().any(|&n| n) {
                self.nulls.clear();
            }
        }
        self.len = sel.len();
    }

    /// The rows `idx` of this column, as a new column: what appending
    /// them to an empty one leaves.
    ///
    /// # Panics
    /// When an index is out of bounds.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut out = Column::new();
        out.append_rows(self, Rows::Gather(idx));
        out
    }

    /// Appends the given rows of `src`, lane to lane: the column is left
    /// as pushing `src.value(i)` for each row would leave it — same
    /// values, same null mask, same placeholders, and on a column with
    /// no rows the same lane type a fresh column would type itself to —
    /// without materializing any value. So what a consumer encodes
    /// after an append depends on the rows, never on which lanes
    /// carried them.
    /// The caller has checked the rows against `src.len()`.
    ///
    /// # Panics
    /// When an appended non-NULL row's kind is not the lane's.
    fn append_rows(&mut self, src: &Column, rows: Rows<'_>) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        // The mask first: it stays empty unless an appended row is NULL.
        let nulls = src.has_nulls() && rows.any(|i| src.nulls[i]);
        // Rows that are all NULL type nothing (an untyped source holds
        // nothing else).
        let all_null = src.data.is_none() || (nulls && rows.all(|i| src.nulls[i]));
        if self.len == 0 {
            // No rows, so no values to preserve: what is left of an
            // earlier use is allocations, which only a source lane of
            // the same type can reuse.
            let reusable = match (&self.data, &src.data) {
                (Some(d), Some(s)) => std::mem::discriminant(d) == std::mem::discriminant(s),
                _ => false,
            };
            if all_null || !reusable {
                self.data = None;
            }
        }
        if nulls {
            if self.nulls.is_empty() {
                self.nulls.resize(self.len, false);
            }
            rows.extend(&mut self.nulls, &src.nulls);
        } else if !self.nulls.is_empty() {
            self.nulls.resize(self.len + n, false);
        }
        let typed = match &src.data {
            Some(s) if !all_null => Some(s),
            _ => None,
        };
        match (&mut self.data, typed) {
            (None, None) => {}
            (Some(d), None) => (0..n).for_each(|_| d.push_placeholder()),
            (dst, Some(s)) => {
                let lane = dst.get_or_insert_with(|| {
                    let mut lane = s.empty_like();
                    (0..self.len).for_each(|_| lane.push_placeholder());
                    lane
                });
                // Source lanes hold anything at NULL positions (a kernel
                // computes straight through them); pushes leave the
                // placeholder.
                let appended = &self.nulls[if nulls { self.len } else { self.nulls.len() }..];
                match (lane, s) {
                    (ColumnData::UInt(d), ColumnData::UInt(s)) => {
                        rows.extend(d, s);
                        blank_nulls(d, appended, || 0);
                    }
                    (ColumnData::Int(d), ColumnData::Int(s)) => {
                        rows.extend(d, s);
                        blank_nulls(d, appended, || 0);
                    }
                    (ColumnData::Bool(d), ColumnData::Bool(s)) => {
                        rows.extend(d, s);
                        blank_nulls(d, appended, || false);
                    }
                    (ColumnData::Str(d), ColumnData::Str(s)) => {
                        rows.extend(d, s);
                        blank_nulls(d, appended, || ArcStr::from(""));
                    }
                    (d, s) => panic!(
                        "a {} lane appended to a {} lane",
                        s.data_type(),
                        d.data_type()
                    ),
                }
            }
        }
        self.len += n;
    }
}

/// Overwrites the last `nulls.len()` entries of `lane` with the lane's
/// placeholder wherever `nulls` flags the row.
fn blank_nulls<T>(lane: &mut [T], nulls: &[bool], placeholder: impl Fn() -> T) {
    let at = lane.len() - nulls.len();
    for (x, &null) in lane[at..].iter_mut().zip(nulls) {
        if null {
            *x = placeholder();
        }
    }
}

/// A batch of tuples in columnar (structure-of-arrays) layout.
///
/// The arity is fixed at construction; every column always holds
/// exactly [`ColumnBatch::rows`] entries.
#[derive(Debug, Clone, Default)]
pub struct ColumnBatch {
    columns: Vec<Column>,
    rows: usize,
    /// Rows the builder expects to push: what a lane reserves when its
    /// first non-NULL value types it. 0 leaves lanes to grow by
    /// doubling.
    budget: usize,
}

impl ColumnBatch {
    /// Creates an empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        ColumnBatch::with_row_budget(arity, 0)
    }

    /// [`ColumnBatch::new`] for a batch that will be filled to `rows`
    /// rows by [`ColumnBatch::push_row`]: lanes still type themselves
    /// from the values pushed, but each is allocated once, at `rows`
    /// entries, instead of doubling its way there.
    pub fn with_row_budget(arity: usize, rows: usize) -> Self {
        ColumnBatch {
            columns: (0..arity).map(|_| Column::new()).collect(),
            rows: 0,
            budget: rows,
        }
    }

    /// Transposes a row batch into columns. The arity is taken from the
    /// first tuple (0 when the batch is empty).
    ///
    /// # Panics
    /// When the rows disagree on arity, or a column's values on kind.
    pub fn from_rows(rows: &[Tuple]) -> Self {
        let arity = rows.first().map_or(0, Tuple::arity);
        let mut b = ColumnBatch::with_row_budget(arity, rows.len());
        b.extend_rows(rows);
        b
    }

    /// Assembles a batch from pre-built columns.
    ///
    /// # Panics
    /// When the columns disagree on length.
    pub fn from_columns(columns: Vec<Column>) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        Self::from_columns_with_rows(columns, rows)
    }

    /// Assembles a batch from pre-built columns with an explicit row
    /// count (required to represent a non-empty batch of arity 0,
    /// which row frames can carry).
    ///
    /// # Panics
    /// When any column's length disagrees with `rows`.
    pub fn from_columns_with_rows(columns: Vec<Column>, rows: usize) -> Self {
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "columns disagree on row count"
        );
        ColumnBatch {
            columns,
            rows,
            budget: 0,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column at position `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Moves the rows out, leaving an empty, untyped batch of the same
    /// arity and row budget behind.
    pub fn take(&mut self) -> ColumnBatch {
        let empty = ColumnBatch::with_row_budget(self.arity(), self.budget);
        std::mem::replace(self, empty)
    }

    /// Moves column `i` out, leaving an empty column in its place —
    /// the zero-copy building block of pure-column projection.
    pub fn take_column(&mut self, i: usize) -> Column {
        std::mem::take(&mut self.columns[i])
    }

    /// Checks each column's lane against its field's declared kind: a
    /// [`crate::TypeError::KindMismatch`] names the first column whose lane
    /// is of another kind, at its first non-NULL row (0 when every row
    /// is NULL). An untyped lane passes. The batch's arity is the
    /// caller's to check.
    pub fn check_kinds(&self, fields: &[Field]) -> TypeResult<()> {
        for (c, f) in self.columns.iter().zip(fields) {
            if c.data_type().is_some_and(|k| k != f.data_type()) {
                let row = (0..c.len).find(|&r| !c.is_null(r)).unwrap_or(0);
                f.check_kind(row, c.data_type())?;
            }
        }
        Ok(())
    }

    /// Appends one row.
    ///
    /// # Panics
    /// When the tuple's arity disagrees with the batch's, or a value's
    /// kind is not its lane's.
    pub fn push_row(&mut self, t: &Tuple) {
        let pushed: TypeResult<()> = self.push_row_with(t, |_, _| Ok(()));
        debug_assert!(pushed.is_ok());
    }

    /// [`ColumnBatch::push_row`] for row `row` of a feed from outside the
    /// plan, held to `fields`: a value of another kind than its field
    /// declares is a [`crate::TypeError::KindMismatch`], and leaves the
    /// batch with part of the row, to be discarded.
    ///
    /// # Panics
    /// When the tuple's arity disagrees with the batch's.
    pub fn push_checked_row(&mut self, t: &Tuple, row: usize, fields: &[Field]) -> TypeResult<()> {
        let check = |c: usize, v: &Value| fields[c].check_kind(row, v.data_type());
        if self.rows == 0 {
            // An empty batch's lanes may be typed by an earlier use.
            (t.values().iter().enumerate()).try_for_each(|(c, v)| check(c, v))?;
        }
        self.push_row_with(t, check)
    }

    /// Appends `t`, passing every value that does not go onto an
    /// all-valid unsigned lane to `check` (with its column) first. Once
    /// the batch has a checked row, a value that goes there needs none:
    /// the one that typed the lane was checked.
    fn push_row_with(
        &mut self,
        t: &Tuple,
        mut check: impl FnMut(usize, &Value) -> TypeResult<()>,
    ) -> TypeResult<()> {
        assert_eq!(t.arity(), self.arity(), "tuple arity != batch arity");
        for (i, (c, v)) in self.columns.iter_mut().zip(t.values()).enumerate() {
            match (&mut c.data, v) {
                // The packet-header case, inline.
                (Some(ColumnData::UInt(lane)), Value::UInt(x)) if c.nulls.is_empty() => {
                    lane.push(*x);
                    c.len += 1;
                }
                _ => {
                    check(i, v)?;
                    c.push_reserving(v, self.budget);
                }
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends every row of a batch.
    ///
    /// # Panics
    /// As [`ColumnBatch::push_row`].
    pub fn extend_rows(&mut self, rows: &[Tuple]) {
        for t in rows {
            self.push_row(t);
        }
    }

    /// Appends rows `rows` of `src`, lane to lane — what pushing each of
    /// those rows would leave, without materializing them.
    ///
    /// # Panics
    /// When the arities disagree, the range reaches past `src.rows()`,
    /// or an appended non-NULL row's kind is not its lane's.
    pub fn append_range(&mut self, src: &ColumnBatch, rows: std::ops::Range<usize>) {
        assert!(
            rows.start <= rows.end && rows.end <= src.rows,
            "rows {rows:?} out of bounds ({} rows)",
            src.rows
        );
        self.append_rows(src, Rows::Range(rows.start, rows.end));
    }

    /// Appends the rows of `src` named by `idx` (any order, repeats
    /// allowed), lane to lane.
    ///
    /// # Panics
    /// When the arities disagree, an index reaches past `src.rows()`, or
    /// an appended non-NULL row's kind is not its lane's.
    pub fn append_gather(&mut self, src: &ColumnBatch, idx: &[u32]) {
        assert!(
            idx.iter().all(|&i| (i as usize) < src.rows),
            "gather index out of bounds ({} rows)",
            src.rows
        );
        self.append_rows(src, Rows::Gather(idx));
    }

    fn append_rows(&mut self, src: &ColumnBatch, rows: Rows<'_>) {
        assert_eq!(src.arity(), self.arity(), "source arity != batch arity");
        for (c, s) in self.columns.iter_mut().zip(&src.columns) {
            c.append_rows(s, rows);
        }
        self.rows += rows.len();
    }

    /// Materializes row `i` into `out` (cleared first), so a row-based
    /// consumer can recycle one scratch tuple across the whole batch.
    pub fn write_row_into(&self, i: usize, out: &mut Tuple) {
        out.clear();
        for c in &self.columns {
            out.push(c.value(i));
        }
    }

    /// Materializes row `i` as a fresh tuple.
    pub fn row(&self, i: usize) -> Tuple {
        let mut t = Tuple::with_capacity(self.arity());
        self.write_row_into(i, &mut t);
        t
    }

    /// Transposes back to rows, appending to `out` — the converter for
    /// query outputs.
    pub fn append_rows_to(&self, out: &mut Vec<Tuple>) {
        out.reserve(self.rows);
        for i in 0..self.rows {
            out.push(self.row(i));
        }
    }

    /// Transposes back to a fresh row vector.
    pub fn to_rows(&self) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.append_rows_to(&mut out);
        out
    }

    /// Does nothing: a string column has one lane, [`ColumnData::Str`].
    /// Kept for callers that still normalize batches at entry.
    pub fn dict_encode_strings(&mut self) {}

    /// Makes room for `rows` more rows in every typed lane (and null
    /// mask), so appending that many grows nothing.
    pub fn reserve(&mut self, rows: usize) {
        for c in &mut self.columns {
            match &mut c.data {
                Some(ColumnData::UInt(v)) => v.reserve(rows),
                Some(ColumnData::Int(v)) => v.reserve(rows),
                Some(ColumnData::Bool(v)) => v.reserve(rows),
                Some(ColumnData::Str(v)) => v.reserve(rows),
                None => {}
            }
            c.nulls.reserve(if c.nulls.is_empty() { 0 } else { rows });
        }
    }

    /// Empties the batch, retaining arity, lane types and capacity.
    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.rows = 0;
    }

    /// Compacts every column in place onto `sel` (strictly increasing
    /// row indices). This is how a vectorized filter applies its
    /// [`SelectionVector`]: no row is copied unless it survives.
    pub fn compact(&mut self, sel: &SelectionVector) {
        if sel.len() == self.rows {
            return;
        }
        for c in &mut self.columns {
            c.compact(sel.as_slice());
        }
        self.rows = sel.len();
    }
}

/// The set of row indices a predicate kernel has kept so far.
///
/// Kernels refine the selection (AND = intersect, OR = union of the
/// branch survivors) instead of copying data; the final selection is
/// applied once via [`ColumnBatch::compact`]. Indices are `u32` —
/// batches are bounded by `BatchConfig` far below 2³² rows — and kept
/// strictly increasing by construction.
#[derive(Debug, Clone, Default)]
pub struct SelectionVector {
    idx: Vec<u32>,
}

impl SelectionVector {
    /// Creates an empty selection.
    pub fn new() -> Self {
        SelectionVector::default()
    }

    /// Creates the identity selection `0..n` (all rows selected).
    pub fn identity(n: usize) -> Self {
        let mut s = SelectionVector::new();
        s.fill_identity(n);
        s
    }

    /// Resets to the identity selection `0..n`, reusing the backing
    /// allocation.
    pub fn fill_identity(&mut self, n: usize) {
        self.idx.clear();
        self.idx.extend(0..n as u32);
    }

    /// Number of selected rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether no row is selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The selected row indices, strictly increasing.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.idx
    }

    /// Clears the selection, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.idx.clear();
    }

    /// Appends a row index. Callers must keep indices strictly
    /// increasing.
    #[inline]
    pub fn push(&mut self, i: u32) {
        debug_assert!(self.idx.last().is_none_or(|&last| last < i));
        self.idx.push(i);
    }

    /// Replaces the selection with the given indices (must be strictly
    /// increasing).
    pub fn set_from(&mut self, indices: &[u32]) {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        self.idx.clear();
        self.idx.extend_from_slice(indices);
    }

    /// Mutable access to the raw indices, for kernels that compact the
    /// selection in place. The strictly-increasing invariant must hold
    /// when the borrow ends.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut Vec<u32> {
        &mut self.idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, TypeError};

    fn round_trip(rows: Vec<Tuple>) {
        let b = ColumnBatch::from_rows(&rows);
        assert_eq!(b.rows(), rows.len());
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn round_trip_uniform_uints() {
        round_trip(vec![tuple![1u64, 2u64], tuple![3u64, 4u64]]);
    }

    #[test]
    fn round_trip_all_kinds_and_nulls() {
        round_trip(vec![
            Tuple::new(vec![
                Value::Null,
                Value::UInt(7),
                Value::from("tcp"),
                Value::Bool(true),
            ]),
            Tuple::new(vec![
                Value::Int(-1),
                Value::Null,
                Value::from(""),
                Value::Bool(false),
            ]),
            Tuple::new(vec![
                Value::Int(9),
                Value::UInt(0),
                Value::Null,
                Value::Null,
            ]),
        ]);
    }

    #[test]
    fn round_trip_all_null_column() {
        round_trip(vec![
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Null]),
        ]);
    }

    #[test]
    fn round_trip_empty_batch() {
        round_trip(Vec::new());
    }

    #[test]
    fn extend_uints_is_pushing_each() {
        // Onto a fresh, a NULL-bearing, an untyped all-NULL and a
        // recycled signed column: the same column pushes would leave.
        let mut recycled = Column::from_values(&[Value::Int(5)]);
        recycled.clear();
        let starts = [
            Column::new(),
            Column::from_values(&[Value::Null, Value::UInt(3)]),
            Column::from_values(&[Value::Null, Value::Null]),
            recycled,
        ];
        for mut c in starts {
            let mut want = c.clone();
            for x in [7u64, 0, u64::MAX] {
                want.push(&Value::UInt(x));
            }
            c.extend_uints([7u64, 0, u64::MAX]);
            assert_eq!(format!("{c:?}"), format!("{want:?}"));
            c.extend_uints(std::iter::empty());
            assert_eq!(format!("{c:?}"), format!("{want:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "pushed onto a uint lane")]
    fn a_value_of_another_kind_is_refused() {
        ColumnBatch::from_rows(&[tuple![1u64], tuple![-2i64]]);
    }

    #[test]
    fn check_kinds_names_the_first_off_kind_row() {
        use crate::DataType;
        let fields = [
            Field::new("a", DataType::UInt),
            Field::new("b", DataType::UInt),
        ];
        let rows = vec![
            Tuple::new(vec![Value::UInt(1), Value::Null]),
            tuple![2u64, -3i64],
        ];
        let want_at = |row| TypeError::KindMismatch {
            column: "b".into(),
            row,
            expected: DataType::UInt,
            found: DataType::Int,
        };
        let want = want_at(1);
        assert_eq!(
            ColumnBatch::from_rows(&rows).check_kinds(&fields),
            Err(want.clone())
        );
        let mut staged = ColumnBatch::new(2);
        assert_eq!(staged.push_checked_row(&rows[0], 0, &fields), Ok(()));
        assert_eq!(staged.push_checked_row(&rows[1], 1, &fields), Err(want));
        // A lane of another kind is refused even when its rows are all
        // NULL (at row 0); an untyped one passes.
        let uints = || Column::from_parts(ColumnData::UInt(vec![1, 2]), Vec::new());
        let nulls = Column::from_parts(ColumnData::Int(vec![0, 0]), vec![true, true]);
        let b = ColumnBatch::from_columns(vec![uints(), nulls]);
        assert_eq!(b.check_kinds(&fields), Err(want_at(0)));
        let b = ColumnBatch::from_columns(vec![uints(), Column::all_null(2)]);
        assert_eq!(b.check_kinds(&fields), Ok(()));
    }

    #[test]
    fn null_then_typed_keeps_typed_lane() {
        let rows = vec![
            Tuple::new(vec![Value::Null]),
            tuple![5u64],
            Tuple::new(vec![Value::Null]),
        ];
        let b = ColumnBatch::from_rows(&rows);
        assert!(matches!(b.column(0).data(), Some(ColumnData::UInt(_))));
        assert!(b.column(0).has_nulls());
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn no_null_mask_until_first_null() {
        let b = ColumnBatch::from_rows(&[tuple![1u64], tuple![2u64]]);
        assert!(!b.column(0).has_nulls());
        assert!(b.column(0).null_mask().is_empty());
    }

    #[test]
    fn compact_applies_selection_in_place() {
        let rows = vec![
            tuple![10u64, "a"],
            tuple![20u64, "b"],
            tuple![30u64, "c"],
            tuple![40u64, "d"],
        ];
        let mut b = ColumnBatch::from_rows(&rows);
        let mut sel = SelectionVector::new();
        sel.push(1);
        sel.push(3);
        b.compact(&sel);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.to_rows(), vec![tuple![20u64, "b"], tuple![40u64, "d"]]);
    }

    #[test]
    fn compact_drops_null_mask_when_no_null_survives() {
        let rows = vec![Tuple::new(vec![Value::Null]), tuple![1u64], tuple![2u64]];
        let mut b = ColumnBatch::from_rows(&rows);
        assert!(b.column(0).has_nulls());
        let mut sel = SelectionVector::new();
        sel.push(1);
        sel.push(2);
        b.compact(&sel);
        assert!(!b.column(0).has_nulls());
        assert_eq!(b.to_rows(), vec![tuple![1u64], tuple![2u64]]);
    }

    #[test]
    fn compact_to_empty() {
        let mut b = ColumnBatch::from_rows(&[tuple![1u64]]);
        b.compact(&SelectionVector::new());
        assert_eq!(b.rows(), 0);
        assert!(b.to_rows().is_empty());
    }

    #[test]
    fn take_column_leaves_empty_slot() {
        let mut b = ColumnBatch::from_rows(&[tuple![1u64, 2u64]]);
        let c = b.take_column(1);
        assert_eq!(c.value(0), Value::UInt(2));
        assert!(b.column(1).is_empty());
    }

    #[test]
    fn clear_retains_lane_type() {
        let mut b = ColumnBatch::from_rows(&[tuple![1u64]]);
        b.clear();
        assert_eq!(b.rows(), 0);
        assert!(matches!(b.column(0).data(), Some(ColumnData::UInt(_))));
        b.push_row(&tuple![9u64]);
        assert_eq!(b.to_rows(), vec![tuple![9u64]]);
    }

    #[test]
    fn a_cleared_lane_types_itself_from_its_next_value() {
        // A recycled batch of the same arity must not carry its last
        // user's lane types: a string pushed onto a cleared unsigned
        // lane types it `Str`, as on a fresh batch.
        let mut b = ColumnBatch::from_rows(&[tuple![1u64]]);
        b.clear();
        b.push_row(&tuple!["tcp"]);
        assert!(matches!(b.column(0).data(), Some(ColumnData::Str(_))));
        b.clear();
        b.push_row(&tuple![3u64]);
        assert!(matches!(b.column(0).data(), Some(ColumnData::UInt(_))));
        assert_eq!(b.to_rows(), vec![tuple![3u64]]);
        // A NULL first leaves it untyped, so the string after it types it.
        b.clear();
        b.push_row(&Tuple::new(vec![Value::Null]));
        assert_eq!(b.column(0).data_type(), None);
        b.push_row(&tuple!["udp"]);
        assert!(matches!(b.column(0).data(), Some(ColumnData::Str(_))));
        assert_eq!(
            b.to_rows(),
            vec![Tuple::new(vec![Value::Null]), tuple!["udp"]]
        );
    }

    #[test]
    fn selection_identity_and_refill() {
        let mut s = SelectionVector::identity(3);
        assert_eq!(s.as_slice(), &[0, 1, 2]);
        s.fill_identity(2);
        assert_eq!(s.as_slice(), &[0, 1]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn write_row_into_recycles_scratch() {
        let b = ColumnBatch::from_rows(&[tuple![1u64, 2u64], tuple![3u64, 4u64]]);
        let mut scratch = Tuple::with_capacity(2);
        b.write_row_into(0, &mut scratch);
        assert_eq!(scratch, tuple![1u64, 2u64]);
        b.write_row_into(1, &mut scratch);
        assert_eq!(scratch, tuple![3u64, 4u64]);
    }
}
