//! Differential test of the page-aware selection kernel against the per-row
//! reference `Predicate::matches`, over a table of more than two pages whose
//! columns mix RLE, FOR and plain pages, NULLs and all-null pages, with runs
//! that cross page and morsel boundaries.

use qob_storage::encoding::{CodeEncoding, IntEncoding};
use qob_storage::{
    CmpOp, ColumnId, ColumnMeta, DataType, EncodingPolicy, Predicate, RowId, Selection, Table,
    TableBuilder, Value, PAGE_ROWS,
};

/// Rows in the test table: two full pages and a partial third.
const ROWS: usize = 150_000;

/// Run length of the run-structured columns: divides neither `PAGE_ROWS`
/// nor a 10,000-row morsel, so runs straddle both boundaries.
const RUN: usize = 1_234;

/// A deterministic xorshift generator (the test needs no seeded crate).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Columns:
/// * `runs` — `row / RUN`, every 7th run NULL: RLE on every page;
/// * `mixed` — RLE on page 0, FOR on page 1, plain (extreme values) on
///   page 2, scattered NULLs throughout;
/// * `sparse` — every third row on pages 0 and 2, all-null page 1;
/// * `kind` — strings in long runs on page 0 (RLE codes), scattered on
///   page 1 (bit-packed codes), and on page 2 scattered strings found on no
///   other page, so code sets can skip pages; scattered NULLs.
fn table() -> Table {
    let mut b = TableBuilder::new(
        "t",
        vec![
            ColumnMeta::new("runs", DataType::Int),
            ColumnMeta::new("mixed", DataType::Int),
            ColumnMeta::new("sparse", DataType::Int),
            ColumnMeta::new("kind", DataType::Str),
        ],
    );
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for row in 0..ROWS {
        let page = row / PAGE_ROWS;
        let run = row / RUN;
        let runs = if run % 7 == 3 { Value::Null } else { Value::Int(run as i64) };
        let mixed = if rng.below(50) == 0 {
            Value::Null
        } else {
            Value::Int(match page {
                0 => (run % 50) as i64,
                1 => rng.below(1_000) as i64,
                _ => match rng.below(100) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.below(1_000) as i64 - 500,
                },
            })
        };
        let sparse =
            if page != 1 && row % 3 == 0 { Value::Int((row % 97) as i64) } else { Value::Null };
        let kind = if page > 0 && rng.below(20) == 0 {
            Value::Null
        } else {
            match page {
                0 => Value::Str(format!("kind-{}", run % 9)),
                1 => Value::Str(format!("kind-{}", rng.below(9))),
                _ => Value::Str(format!("late-{}", rng.below(5))),
            }
        };
        b.push_row(vec![runs, mixed, sparse, kind]).unwrap();
    }
    b.finish()
}

fn predicates(t: &Table) -> Vec<Vec<Predicate>> {
    let col = |name: &str| t.column_id(name).unwrap();
    let (runs, mixed, sparse, kind) = (col("runs"), col("mixed"), col("sparse"), col("kind"));
    let cmp = |column: ColumnId, op: CmpOp, value: i64| Predicate::IntCmp { column, op, value };
    let str_eq = |value: &str| Predicate::StrEq { column: kind, value: value.into() };
    let mut out = Vec::new();
    let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    for op in ops {
        for value in [0, 53, 60, 121, -500, 499, i64::MIN, i64::MAX] {
            out.push(vec![cmp(runs, op, value)]);
            out.push(vec![cmp(mixed, op, value)]);
        }
        out.push(vec![cmp(sparse, op, 40)]);
    }
    for (low, high) in [(10, 20), (53, 53), (-10, 10), (i64::MIN, -400), (20, 10)] {
        out.push(vec![Predicate::IntBetween { column: runs, low, high }]);
        out.push(vec![Predicate::IntBetween { column: mixed, low, high }]);
        out.push(vec![Predicate::IntBetween { column: sparse, low, high }]);
    }
    out.push(vec![str_eq("kind-4")]);
    out.push(vec![str_eq("absent")]);
    out.push(vec![Predicate::StrIn {
        column: kind,
        values: vec!["kind-1".into(), "absent".into(), "kind-7".into()],
    }]);
    out.push(vec![Predicate::StrIn {
        column: kind,
        values: vec!["kind-1".into(), "late-3".into()],
    }]);
    out.push(vec![str_eq("late-2")]);
    out.push(vec![Predicate::Like { column: kind, pattern: "%-2".into() }]);
    out.push(vec![Predicate::Like { column: kind, pattern: "late-%".into() }]);
    out.push(vec![Predicate::Like { column: kind, pattern: "kind-_".into() }]);
    for column in [runs, mixed, sparse, kind] {
        out.push(vec![Predicate::IsNull { column }]);
        out.push(vec![Predicate::IsNotNull { column }]);
    }
    out.push(vec![Predicate::And(vec![cmp(runs, CmpOp::Ge, 30), cmp(mixed, CmpOp::Lt, 25)])]);
    out.push(vec![Predicate::Or(vec![str_eq("kind-3"), cmp(mixed, CmpOp::Gt, 900)])]);
    out.push(vec![Predicate::Not(Box::new(str_eq("kind-0")))]);
    // A string + int conjunction, in both orders, plus a per-row conjunct
    // listed first (page-aware conjuncts must still be correct as refiners).
    out.push(vec![str_eq("kind-5"), cmp(runs, CmpOp::Lt, 100)]);
    out.push(vec![cmp(mixed, CmpOp::Le, 10), str_eq("kind-5")]);
    out.push(vec![
        cmp(mixed, CmpOp::Ne, 3),
        Predicate::IsNotNull { column: sparse },
        str_eq("kind-8"),
    ]);
    // Type mismatches and empty conjunctions.
    out.push(vec![Predicate::StrEq { column: runs, value: "kind-1".into() }]);
    out.push(vec![cmp(kind, CmpOp::Gt, 0)]);
    out.push(vec![]);
    out
}

/// Fixed ranges at the interesting boundaries plus random ones.
fn ranges() -> Vec<std::ops::Range<usize>> {
    let mut out = vec![
        0..ROWS,
        0..0,
        PAGE_ROWS..PAGE_ROWS,
        PAGE_ROWS - 7..PAGE_ROWS + 7,
        60_000..2 * PAGE_ROWS + 9_000,
        10_000..20_000,
        2 * PAGE_ROWS - 1..ROWS,
        ROWS - 1..ROWS,
    ];
    let mut rng = XorShift(42);
    for _ in 0..30 {
        let start = rng.below(ROWS);
        out.push(start..(start + rng.below(20_000)).min(ROWS));
    }
    out
}

fn check(t: &Table) {
    for preds in predicates(t) {
        let reference: Vec<bool> =
            t.row_ids().map(|row| preds.iter().all(|p| p.matches(t, row))).collect();
        let selection = Selection::compile(t, &preds);
        for rows in ranges() {
            // The kernel appends after whatever the vector already holds.
            let mut got = vec![RowId::MAX];
            selection.select(rows.clone(), &mut got);
            let mut expected = vec![RowId::MAX];
            expected.extend(rows.clone().filter(|&r| reference[r]).map(|r| r as RowId));
            assert_eq!(got, expected, "predicates {preds:?} over rows {rows:?}");
        }
    }
}

#[test]
fn kernel_matches_row_reference_on_multi_page_table() {
    let t = table();
    let (runs, mixed) = (t.column_id("runs").unwrap(), t.column_id("mixed").unwrap());
    let kind = t.column_id("kind").unwrap();
    assert_eq!(t.column(runs).page_count(), 3);
    let int_encodings: Vec<_> =
        (0..3).map(|p| t.column(mixed).int_page(p).encoding().clone()).collect();
    assert!(matches!(int_encodings[0], IntEncoding::Rle { .. }));
    assert!(matches!(int_encodings[1], IntEncoding::For { .. }));
    assert!(matches!(int_encodings[2], IntEncoding::Plain(_)));
    assert!(matches!(t.column(kind).code_page(0).encoding(), CodeEncoding::Rle { .. }));
    assert!(matches!(t.column(kind).code_page(1).encoding(), CodeEncoding::Packed { .. }));
    assert_eq!(t.column(t.column_id("sparse").unwrap()).int_page(1).min_max(), None);
    check(&t);
}

#[test]
fn kernel_matches_row_reference_on_plain_pages() {
    let t = table().reencoded(EncodingPolicy::Plain);
    let kind = t.column_id("kind").unwrap();
    assert!(matches!(t.column(kind).code_page(0).encoding(), CodeEncoding::Plain(_)));
    check(&t);
}
