//! The column evaluator against the row interpreter: every case holds
//! the evaluator's kept rows, lanes and errors to `BoundExpr::eval`'s.

use super::*;
use crate::UnOp;
use qap_types::{tuple, Tuple};

fn batch(rows: &[Tuple]) -> ColumnBatch {
    ColumnBatch::from_rows(rows)
}

/// Filters the rows `sel` of `rows` by `e`: the kept rows, or the error.
fn filter(e: &BoundExpr, rows: &[Tuple], sel: &[u32]) -> ExprResult<Vec<u32>> {
    let mut s = SelectionVector::new();
    s.set_from(sel);
    let f = Filter::new(e.clone());
    f.apply(&batch(rows), &mut s, &mut KernelScratch::new())
        .map(|()| s.as_slice().to_vec())
}

/// The interpreter's predicate over the rows `sel`: the kept rows, or
/// its first error.
fn model_filter(e: &BoundExpr, rows: &[Tuple], sel: &[u32]) -> ExprResult<Vec<u32>> {
    let mut kept = Vec::new();
    for &r in sel {
        if e.eval_predicate(&rows[r as usize])? {
            kept.push(r);
        }
    }
    Ok(kept)
}

/// Holds the filter to the interpreter over every row and over every
/// other row.
fn check(e: &BoundExpr, rows: &[Tuple]) {
    let all: Vec<u32> = (0..rows.len() as u32).collect();
    let odd: Vec<u32> = all.iter().copied().filter(|r| r % 2 == 1).collect();
    for sel in [all, odd] {
        let want = model_filter(e, rows, &sel);
        assert_eq!(filter(e, rows, &sel), want, "{e:?} over {sel:?}");
    }
}

/// Projects `e` over `rows`, holding the lane to what pushing the
/// interpreter's values builds (kind, NULL mask and values), or the
/// error to its first one. Returns the lane.
fn check_proj(e: &BoundExpr, rows: &[Tuple]) -> Option<Column> {
    let got = Projection::new(vec![e.clone()]).columns(&batch(rows), &mut KernelScratch::new());
    let want: ExprResult<Vec<Value>> = rows.iter().map(|t| e.eval(t)).collect();
    match want {
        Err(err) => {
            assert_eq!(got.err(), Some(err), "{e:?}");
            None
        }
        Ok(vals) => {
            let c = got.expect("the interpreter met no error").pop().unwrap();
            let w = Column::from_values(&vals);
            assert_eq!(c.data_type(), w.data_type(), "{e:?}");
            assert_eq!(c.null_mask(), w.null_mask(), "{e:?}");
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(&c.value(i), v, "{e:?} row {i}");
            }
            Some(c)
        }
    }
}

fn col(i: usize) -> BoundExpr {
    BoundExpr::Column(i)
}

fn lit(x: u64) -> BoundExpr {
    BoundExpr::Literal(Value::UInt(x))
}

fn ilit(x: i64) -> BoundExpr {
    BoundExpr::Literal(Value::Int(x))
}

fn slit(s: &str) -> BoundExpr {
    BoundExpr::Literal(Value::from(s))
}

fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
    BoundExpr::Binary {
        op,
        lhs: Box::new(l),
        rhs: Box::new(r),
    }
}

fn un(op: UnOp, e: BoundExpr) -> BoundExpr {
    BoundExpr::Unary {
        op,
        expr: Box::new(e),
    }
}

const CMP_OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

#[test]
fn col_const_comparisons() {
    let rows: Vec<Tuple> = (0..10u64).map(|x| tuple![x, 100u64 - x]).collect();
    for op in CMP_OPS {
        check(&bin(op, col(0), lit(5)), &rows);
        check(&bin(op, lit(5), col(0)), &rows);
    }
}

#[test]
fn col_const_comparisons_cover_simd_chunk_edges() {
    // Lengths straddling the chunk width exercise both the chunked
    // loop and the scalar tail.
    for n in [SIMD_WIDTH - 1, SIMD_WIDTH, 2 * SIMD_WIDTH + 3] {
        let rows: Vec<Tuple> = (0..n as u64).map(|x| tuple![x % 7]).collect();
        for op in CMP_OPS {
            check(&bin(op, col(0), lit(3)), &rows);
        }
    }
}

#[test]
fn col_col_and_arith() {
    let rows: Vec<Tuple> = (0..20u64).map(|x| tuple![x, x * 3 % 7, x + 1]).collect();
    check(&bin(BinOp::Lt, col(0), col(1)), &rows);
    check(
        &bin(
            BinOp::Eq,
            bin(BinOp::Mod, col(0), lit(3)),
            bin(BinOp::BitAnd, col(1), lit(1)),
        ),
        &rows,
    );
    check(
        &bin(BinOp::Ge, bin(BinOp::Div, col(2), lit(4)), lit(2)),
        &rows,
    );
}

#[test]
fn and_or_not_structure() {
    let rows: Vec<Tuple> = (0..30u64).map(|x| tuple![x, x % 5, x % 3]).collect();
    let p = bin(
        BinOp::And,
        bin(BinOp::Gt, col(0), lit(4)),
        bin(
            BinOp::Or,
            bin(BinOp::Eq, col(1), lit(0)),
            bin(BinOp::Eq, col(2), lit(1)),
        ),
    );
    check(&p, &rows);
    check(&un(UnOp::Not, bin(BinOp::Lt, col(0), lit(15))), &rows);
    check_proj(&p, &rows);
}

#[test]
fn nulls_drop_rows_and_three_valued_or_holds() {
    let rows = vec![
        Tuple::new(vec![Value::UInt(1), Value::UInt(10)]),
        Tuple::new(vec![Value::Null, Value::UInt(10)]),
        Tuple::new(vec![Value::Null, Value::UInt(0)]),
        Tuple::new(vec![Value::UInt(7), Value::Null]),
    ];
    check(&bin(BinOp::Gt, col(0), lit(0)), &rows);
    // NULL OR true = true must keep row 1 (lhs NULL, rhs true).
    let p = bin(
        BinOp::Or,
        bin(BinOp::Gt, col(0), lit(0)),
        bin(BinOp::Eq, col(1), lit(10)),
    );
    check(&p, &rows);
    check_proj(&p, &rows);
    check_proj(&bin(BinOp::And, col(0), col(1)), &rows);
}

#[test]
fn bare_column_predicate_is_c_convention() {
    let rows = vec![tuple![0u64], tuple![3u64], Tuple::new(vec![Value::Null])];
    check(&col(0), &rows);
}

#[test]
fn bare_column_truthy_on_typed_lanes() {
    // Signed lane: any non-zero (including negative) is true.
    let rows: Vec<Tuple> = (-3..3i64)
        .map(|x| Tuple::new(vec![Value::Int(x)]))
        .collect();
    check(&col(0), &rows);
    // Boolean lane with a NULL.
    let rows = vec![
        Tuple::new(vec![Value::Bool(true)]),
        Tuple::new(vec![Value::Bool(false)]),
        Tuple::new(vec![Value::Null]),
    ];
    check(&col(0), &rows);
    // String lane: `as_bool` has no coercion, every row drops.
    let rows: Vec<Tuple> = ["tcp", "udp"]
        .iter()
        .map(|s| Tuple::new(vec![Value::from(*s)]))
        .collect();
    check(&col(0), &rows);
}

#[test]
fn int_lane_comparisons_match_interpreter() {
    let rows: Vec<Tuple> = (-10..10i64)
        .map(|x| Tuple::new(vec![Value::Int(x)]))
        .collect();
    for op in CMP_OPS {
        check(&bin(op, col(0), lit(5)), &rows);
        check(&bin(op, col(0), ilit(-3)), &rows);
        check(&bin(op, ilit(-3), col(0)), &rows);
        // A constant only representable above i64: the i128 compare
        // must agree with the structural/numeric split.
        check(&bin(op, col(0), lit(u64::MAX)), &rows);
        check_proj(&bin(op, col(0), lit(u64::MAX)), &rows);
    }
}

#[test]
fn int_lane_with_nulls() {
    let rows = vec![
        Tuple::new(vec![Value::Int(-1)]),
        Tuple::new(vec![Value::Null]),
        Tuple::new(vec![Value::Int(4)]),
    ];
    for op in CMP_OPS {
        check(&bin(op, col(0), lit(2)), &rows);
    }
}

#[test]
fn negative_literal_on_unsigned_lane_folds_constant() {
    let rows: Vec<Tuple> = (0..8u64).map(|x| tuple![x]).collect();
    for op in CMP_OPS {
        check(&bin(op, col(0), ilit(-1)), &rows);
    }
    // And with NULLs: keep-all must still drop NULL rows.
    let rows = vec![tuple![7u64], Tuple::new(vec![Value::Null])];
    check(&bin(BinOp::Ne, col(0), ilit(-1)), &rows);
}

#[test]
fn bool_lane_comparisons_match_interpreter() {
    let rows = vec![
        Tuple::new(vec![Value::Bool(true)]),
        Tuple::new(vec![Value::Bool(false)]),
        Tuple::new(vec![Value::Null]),
    ];
    for op in CMP_OPS {
        // Equality coerces numerically; ordering ranks by kind.
        check(&bin(op, col(0), lit(1)), &rows);
        check(&bin(op, col(0), lit(0)), &rows);
        check(&bin(op, col(0), slit("x")), &rows);
    }
}

#[test]
fn str_lane_comparisons_match_interpreter() {
    let rows: Vec<Tuple> = ["alpha", "beta", "tcp", "udp", "beta"]
        .iter()
        .map(|s| Tuple::new(vec![Value::from(*s)]))
        .collect();
    for op in CMP_OPS {
        check(&bin(op, col(0), slit("beta")), &rows);
        check(&bin(op, slit("beta"), col(0)), &rows);
        // Numeric constant vs string lane: kind-rank compare.
        check(&bin(op, col(0), lit(5)), &rows);
        check_proj(&bin(op, col(0), col(0)), &rows);
    }
}

/// A negative `int` under a fused column filter and under arithmetic,
/// which a `u64` register path once could not load: both agree with the
/// interpreter.
#[test]
fn signed_lane_filters_fuse_and_reg_path_bails() {
    let rows = vec![Tuple::new(vec![Value::Int(1)]), tuple![-5i64]];
    check(&bin(BinOp::Gt, col(0), lit(0)), &rows);
    check(&col(0), &rows);
    let sum = bin(BinOp::Add, col(0), lit(0));
    check(&bin(BinOp::Gt, sum.clone(), lit(0)), &rows);
    check_proj(&sum, &rows);
}

/// A projection's lane has the kind of the interpreter's values:
/// signed once an operand is signed or the operation is `-`, and a
/// signed value past `i64::MAX` is the interpreter's overflow.
#[test]
fn num_kernel_lanes_take_the_interpreter_kinds() {
    let uints = vec![tuple![7u64, 2u64], tuple![9u64, 4u64]];
    let ints = vec![tuple![7i64, 2u64], tuple![9i64, 4u64]];
    for (e, rows, kind) in [
        (bin(BinOp::Add, col(0), col(1)), &uints, DataType::UInt),
        (bin(BinOp::Sub, col(0), col(1)), &uints, DataType::Int),
        (bin(BinOp::Mul, col(0), ilit(3)), &uints, DataType::Int),
        (bin(BinOp::Add, col(0), col(1)), &ints, DataType::Int),
        (
            un(UnOp::BitNot, bin(BinOp::Sub, col(0), col(1))),
            &uints,
            DataType::UInt,
        ),
    ] {
        let out = check_proj(&e, rows).expect("no error");
        assert_eq!(out.data_type(), Some(kind), "{e:?}");
    }
    let big = vec![tuple![u64::MAX, 0u64]];
    let e = bin(BinOp::Sub, col(0), col(1));
    assert!(e.eval(&big[0]).is_err(), "the interpreter overflows");
    assert!(check_proj(&e, &big).is_none());
}

#[test]
fn lane_counters_attribute_hits() {
    let rows: Vec<Tuple> = (0..4u64).map(|x| tuple![x]).collect();
    let f = Filter::new(bin(BinOp::Gt, col(0), lit(1)));
    let mut scratch = KernelScratch::new();
    let mut sel = SelectionVector::identity(rows.len());
    f.apply(&batch(&rows), &mut sel, &mut scratch).unwrap();
    assert_eq!(scratch.lane_hits()[LaneKind::Uint as usize], 1);
    assert_eq!(scratch.lane_hits().iter().sum::<u64>(), 1);
    // An empty selection evaluates nothing and credits nothing.
    sel.clear();
    f.apply(&batch(&rows), &mut sel, &mut scratch).unwrap();
    assert_eq!(scratch.lane_hits().iter().sum::<u64>(), 1);
}

/// `int` lanes in arithmetic and comparisons, non-negative and then
/// negative: the evaluator reads them as the interpreter does.
#[test]
fn int_lane_register_path_reinterprets_nonnegative() {
    let rows: Vec<Tuple> = (0..20i64)
        .map(|x| Tuple::new(vec![Value::Int(x), Value::Int(x % 5)]))
        .collect();
    check(&bin(BinOp::Lt, col(1), col(0)), &rows);
    check(
        &bin(BinOp::Eq, bin(BinOp::Mod, col(0), lit(5)), col(1)),
        &rows,
    );
    // A negative value under the selection.
    let rows = vec![
        Tuple::new(vec![Value::Int(3), Value::Int(3)]),
        Tuple::new(vec![Value::Int(-4), Value::Int(4)]),
    ];
    check(&bin(BinOp::Lt, col(0), col(1)), &rows);
    check_proj(&bin(BinOp::Div, col(0), col(1)), &rows);
}

/// An overflow bails the evaluation out with the interpreter's error.
#[test]
fn overflow_bails_out() {
    let rows = vec![tuple![u64::MAX], tuple![1u64]];
    let e = bin(BinOp::Gt, bin(BinOp::Add, col(0), lit(1)), lit(0));
    let all = [0, 1];
    assert_eq!(filter(&e, &rows, &all), Err(ExprError::Overflow("+")));
    check(&e, &rows);
}

/// Boolean and NULL literals, a constant zero divisor, a NOT over a
/// non-comparison and literal roots — the shapes a compiled kernel once
/// refused: every one runs, and agrees with the interpreter.
#[test]
fn unkernelizable_shapes_refuse_compilation() {
    let rows: Vec<Tuple> = (0..4u64).map(|x| tuple![x]).collect();
    for op in CMP_OPS {
        check(
            &bin(op, col(0), BoundExpr::Literal(Value::Bool(true))),
            &rows,
        );
    }
    check(
        &bin(BinOp::Eq, col(0), BoundExpr::Literal(Value::Null)),
        &rows,
    );
    let zero = bin(BinOp::Div, col(0), lit(0));
    check(&bin(BinOp::Eq, zero.clone(), lit(1)), &rows);
    assert!(check_proj(&zero, &rows).is_none());
    check(&un(UnOp::Not, col(0)), &rows);
    // Literal roots keep their kind, on every row.
    let out = check_proj(&ilit(5), &rows).unwrap();
    assert_eq!(out.data_type(), Some(DataType::Int));
    let out = check_proj(&BoundExpr::Literal(Value::Null), &rows).unwrap();
    assert!(out.data().is_none(), "an all-NULL lane is untyped");
}

#[test]
fn string_and_negative_literals_now_compile() {
    let protos: Vec<Tuple> = ["tcp", "udp", "tcp"].iter().map(|s| tuple![*s]).collect();
    check(&bin(BinOp::Eq, col(0), slit("tcp")), &protos);
    let rows: Vec<Tuple> = (0..4u64).map(|x| tuple![x]).collect();
    check(&bin(BinOp::Lt, col(0), ilit(-1)), &rows);
}

#[test]
fn num_kernel_matches_interpreter() {
    let rows: Vec<Tuple> = (0..50u64).map(|x| tuple![x * 17 + 3, x % 11]).collect();
    for e in [
        bin(BinOp::Div, col(0), lit(60)),
        bin(BinOp::BitAnd, col(0), lit(0xFF00)),
        bin(
            BinOp::Add,
            bin(BinOp::Mul, col(1), lit(10)),
            bin(BinOp::Shr, col(0), lit(4)),
        ),
        un(UnOp::BitNot, col(1)),
        un(UnOp::Neg, col(1)),
        bin(BinOp::Sub, col(1), col(0)),
    ] {
        assert_eq!(check_proj(&e, &rows).unwrap().len(), rows.len());
    }
}

#[test]
fn num_kernel_on_nonnegative_int_lane() {
    let rows = vec![
        Tuple::new(vec![Value::Int(120)]),
        Tuple::new(vec![Value::Null]),
        Tuple::new(vec![Value::Int(61)]),
    ];
    let e = bin(BinOp::Div, col(0), lit(60));
    check_proj(&e, &rows);
    // A negative input divides in the signed domain.
    check_proj(&e, &[Tuple::new(vec![Value::Int(-60)])]);
}

#[test]
fn num_kernel_propagates_nulls() {
    let rows = vec![
        Tuple::new(vec![Value::UInt(120)]),
        Tuple::new(vec![Value::Null]),
        Tuple::new(vec![Value::UInt(61)]),
    ];
    let c = check_proj(&bin(BinOp::Div, col(0), lit(60)), &rows).unwrap();
    assert_eq!(c.value(0), Value::UInt(2));
    assert_eq!(c.value(1), Value::Null);
    assert_eq!(c.value(2), Value::UInt(1));
    // Every row NULL: no lane.
    let nulls = vec![Tuple::new(vec![Value::Null]); 2];
    let c = check_proj(&bin(BinOp::Div, col(0), lit(60)), &nulls).unwrap();
    assert!(c.data().is_none());
}

#[test]
fn scalar_only_expression_broadcasts() {
    let rows = vec![tuple![1u64], tuple![2u64]];
    let c = check_proj(&bin(BinOp::Mul, lit(6), lit(7)), &rows).unwrap();
    assert_eq!(c.value(0), Value::UInt(42));
    assert_eq!(c.value(1), Value::UInt(42));
}

#[test]
fn scratch_reuse_across_batches() {
    let f = Filter::new(bin(BinOp::Eq, col(0), lit(1)));
    let mut scratch = KernelScratch::new();
    for n in [0usize, 1, 7, 64] {
        let rows: Vec<Tuple> = (0..n as u64).map(|x| tuple![x % 2]).collect();
        let mut sel = SelectionVector::identity(n);
        f.apply(&batch(&rows), &mut sel, &mut scratch).unwrap();
        let expect: Vec<u32> = (0..n as u32).filter(|i| i % 2 == 1).collect();
        assert_eq!(sel.as_slice(), &expect[..]);
    }
}

/// Three expressions, each erring on some row: the error is the first
/// one row-major, although a later expression errs on an earlier row
/// than the first does.
#[test]
fn projection_errors_row_major() {
    let u = |x: u64| Value::UInt(x);
    let cols = |cs: &[&[Value]]| {
        ColumnBatch::from_columns(cs.iter().map(|c| Column::from_values(c)).collect())
    };
    let mut b = cols(&[&[u(1), u(2), u(0)], &[u(5), u(0), u(7)]]);
    let p = Projection::new(vec![
        bin(BinOp::Add, col(0), col(1)),
        // Row 2 divides by zero.
        bin(BinOp::Mod, BoundExpr::Literal(u(6)), col(0)),
        // Row 1 divides by zero.
        bin(BinOp::Div, col(0), col(1)),
        slit("s"),
    ]);
    let err = p.project(&mut b, &mut KernelScratch::new()).unwrap_err();
    assert_eq!(err, ExprError::DivisionByZero);
    // With no error, the outputs are the interpreter's, and the bare
    // column moves.
    let mut ok = cols(&[&[u(1), u(2)], &[u(5), u(3)]]);
    let p = Projection::new(vec![bin(BinOp::Sub, col(1), col(0)), col(0)]);
    let out = p.project(&mut ok, &mut KernelScratch::new()).unwrap();
    assert_eq!(out.row(0).values(), &[Value::Int(4), u(1)]);
    assert!(p.computes());
    let mut ok = cols(&[&[u(1), u(2)], &[u(5), u(3)]]);
    let p = Projection::new(vec![slit("s"), col(1)]);
    let out = p.project(&mut ok, &mut KernelScratch::new()).unwrap();
    assert_eq!(out.row(1).values(), &[Value::from("s"), u(3)]);
    assert!(!Projection::new(vec![col(1)]).computes());
}

/// The error of a row-major list is the interpreter's on the same row
/// too: the first expression's, where two err on one row.
#[test]
fn a_tie_goes_to_the_expression_evaluated_first() {
    let rows = vec![tuple![u64::MAX, 0u64]];
    let p = Projection::new(vec![
        bin(BinOp::Div, col(0), col(1)),
        bin(BinOp::Add, col(0), col(0)),
    ]);
    let got = p.columns(&batch(&rows), &mut KernelScratch::new());
    assert_eq!(got.err(), Some(ExprError::DivisionByZero));
    // Within one expression, the left operand's error wins.
    let e = bin(
        BinOp::Add,
        bin(BinOp::Add, col(0), col(0)),
        bin(BinOp::Div, col(0), col(1)),
    );
    check_proj(&e, &rows);
}

#[test]
fn filter_over_a_string_lane_and_a_not_matches_the_interpreter() {
    let s = |x: &str| Value::from(x);
    let rows: Vec<Tuple> = [s("a"), Value::Null, s("b")]
        .into_iter()
        .map(|v| Tuple::new(vec![v]))
        .collect();
    check(&bin(BinOp::Lt, col(0), slit("b")), &rows);
    // A NOT over a string is the interpreter's type error.
    let not = un(UnOp::Not, col(0));
    let all = [0, 1, 2];
    assert!(filter(&not, &rows, &all).is_err());
    check(&not, &rows);
}

/// `i = 3 and u + u < 3` over `(u u64::MAX, i NULL)`, `(u 1, i 3)`: the
/// interpreter evaluates the right conjunct where the left one is NULL,
/// and overflows there, so the filter errs too. OR's right side runs
/// only where its left side is not true.
#[test]
fn an_error_behind_a_null_conjunct_surfaces_as_the_interpreters() {
    let rows = vec![
        Tuple::new(vec![Value::UInt(1), Value::UInt(u64::MAX), Value::Null]),
        Tuple::new(vec![Value::UInt(2), Value::UInt(1), Value::Int(3)]),
    ];
    let overflow = bin(BinOp::Lt, bin(BinOp::Add, col(1), col(1)), lit(3));
    let and = bin(BinOp::And, bin(BinOp::Eq, col(2), lit(3)), overflow.clone());
    let all = [0, 1];
    assert_eq!(filter(&and, &rows, &all), Err(ExprError::Overflow("+")));
    check(&and, &rows);
    check_proj(&and, &rows);
    // A false left conjunct or a true left disjunct shields the row.
    let shielded = [
        bin(BinOp::And, bin(BinOp::Eq, col(1), lit(1)), overflow.clone()),
        bin(BinOp::Or, bin(BinOp::Ne, col(1), lit(1)), overflow),
    ];
    for e in shielded {
        assert!(filter(&e, &rows, &all).is_ok(), "{e:?}");
        check(&e, &rows);
    }
}
