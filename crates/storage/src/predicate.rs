//! Base-table predicates and their evaluation.
//!
//! JOB queries restrict base tables with equality, range, `IN`, `LIKE`,
//! disjunctive and null predicates.  This module represents those predicates
//! and evaluates them against a [`Table`]: [`Selection`] produces the
//! selection vector of matching [`RowId`]s for a row range, and
//! [`Predicate::matches`] the per-row boolean.

use std::ops::Range;

use crate::bitmap::Bitmap;
use crate::column::{EncodedColumn, StringDict};
use crate::encoding::PAGE_ROWS;
use crate::table::{ColumnId, RowId, Table};
use crate::value::DataType;

/// Comparison operators on integer columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to `(lhs, rhs)`.
    #[inline]
    pub fn apply(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A predicate over a single base table.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col <op> literal` on an integer column.
    IntCmp {
        /// Column operand.
        column: ColumnId,
        /// Comparison operator.
        op: CmpOp,
        /// Literal operand.
        value: i64,
    },
    /// `col BETWEEN low AND high` (inclusive) on an integer column.
    IntBetween {
        /// Column operand.
        column: ColumnId,
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// `col = 'literal'` on a string column.
    StrEq {
        /// Column operand.
        column: ColumnId,
        /// Literal operand.
        value: String,
    },
    /// `col IN ('a', 'b', ...)` on a string column.
    StrIn {
        /// Column operand.
        column: ColumnId,
        /// Literal set.
        values: Vec<String>,
    },
    /// `col LIKE 'pattern'` where `%` matches any sequence and `_` any single
    /// character.
    Like {
        /// Column operand.
        column: ColumnId,
        /// LIKE pattern.
        pattern: String,
    },
    /// `col IS NULL`.
    IsNull {
        /// Column operand.
        column: ColumnId,
    },
    /// `col IS NOT NULL`.
    IsNotNull {
        /// Column operand.
        column: ColumnId,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
    /// Disjunction of predicates.
    Or(Vec<Predicate>),
    /// Negation of a predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate for one row of `table`.
    pub fn matches(&self, table: &Table, row: RowId) -> bool {
        let r = row as usize;
        match self {
            Predicate::IntCmp { column, op, value } => match table.column(*column).int_at(r) {
                Some(v) => op.apply(v, *value),
                None => false,
            },
            Predicate::IntBetween { column, low, high } => match table.column(*column).int_at(r) {
                Some(v) => v >= *low && v <= *high,
                None => false,
            },
            Predicate::StrEq { column, value } => match table.column(*column).str_at(r) {
                Some(s) => s == value,
                None => false,
            },
            Predicate::StrIn { column, values } => match table.column(*column).str_at(r) {
                Some(s) => values.iter().any(|v| v == s),
                None => false,
            },
            Predicate::Like { column, pattern } => match table.column(*column).str_at(r) {
                Some(s) => like_match(pattern, s),
                None => false,
            },
            Predicate::IsNull { column } => table.column(*column).is_null(r),
            Predicate::IsNotNull { column } => !table.column(*column).is_null(r),
            Predicate::And(preds) => preds.iter().all(|p| p.matches(table, row)),
            Predicate::Or(preds) => preds.iter().any(|p| p.matches(table, row)),
            Predicate::Not(p) => !p.matches(table, row),
        }
    }

    /// Evaluates the predicate against a whole table with the [`Selection`]
    /// kernel, returning the matching row ids in order.
    pub fn filter(&self, table: &Table) -> Vec<RowId> {
        let mut rows = Vec::new();
        Selection::compile(table, std::slice::from_ref(self))
            .select(0..table.row_count(), &mut rows);
        rows
    }

    /// All columns referenced by the predicate (with duplicates removed).
    pub fn referenced_columns(&self) -> Vec<ColumnId> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<ColumnId>) {
        match self {
            Predicate::IntCmp { column, .. }
            | Predicate::IntBetween { column, .. }
            | Predicate::StrEq { column, .. }
            | Predicate::StrIn { column, .. }
            | Predicate::Like { column, .. }
            | Predicate::IsNull { column }
            | Predicate::IsNotNull { column } => out.push(*column),
            Predicate::And(preds) | Predicate::Or(preds) => {
                for p in preds {
                    p.collect_columns(out);
                }
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// True if the predicate is a plain equality (integer or string) — the
    /// kind of predicate histograms and most-common-value lists handle well.
    pub fn is_simple_equality(&self) -> bool {
        matches!(self, Predicate::StrEq { .. } | Predicate::IntCmp { op: CmpOp::Eq, .. })
    }
}

/// A relation's predicate conjunction compiled once against its table: the
/// one selection kernel behind every base-table scan — the executor's morsel
/// scans, ground-truth extraction and Table 1's base-table truths.
///
/// String `=`/`IN`/`LIKE` conjuncts become dictionary code sets and integer
/// comparisons become inclusive ranges.  Both skip pages whose non-null
/// min/max is disjoint from the predicate and test RLE pages once per run.
/// Anything else (`<>`, `IS [NOT] NULL`, `OR`, `NOT`) falls back to
/// [`Predicate::matches`] per row.  The first conjunct drives the scan and the
/// others refine its survivors; page-aware conjuncts are ordered first.
pub struct Selection<'a> {
    table: &'a Table,
    conjuncts: Vec<Conjunct<'a>>,
}

enum Conjunct<'a> {
    /// Non-null rows of a string column whose code is in the set.
    Codes { col: &'a EncodedColumn, set: CodeSet },
    /// Non-null rows of an integer column whose value lies in `low..=high`.
    Range { col: &'a EncodedColumn, low: i64, high: i64 },
    /// No row matches: an absent literal, an empty range, or a column of the
    /// wrong type.
    Never,
    /// Evaluated row by row.
    Row(&'a Predicate),
}

/// Dictionary codes as a bitmap over `lo..=hi` (bit `i` is code `lo + i`).
struct CodeSet {
    lo: u32,
    hi: u32,
    bits: Bitmap,
}

impl CodeSet {
    #[inline]
    fn contains(&self, code: u32) -> bool {
        (self.lo..=self.hi).contains(&code) && self.bits.get((code - self.lo) as usize)
    }
}

impl<'a> Selection<'a> {
    /// Compiles the conjunction of `predicates` against `table`.
    pub fn compile(table: &'a Table, predicates: &'a [Predicate]) -> Self {
        let mut conjuncts = Vec::new();
        for p in predicates {
            Conjunct::compile_into(table, p, &mut conjuncts);
        }
        conjuncts.sort_by_key(|c| matches!(c, Conjunct::Row(_)));
        Selection { table, conjuncts }
    }

    /// Appends the ids of the rows in `rows` that satisfy every conjunct to
    /// `out`, in ascending order.
    ///
    /// # Panics
    /// Panics if `rows` extends past the end of the table.
    pub fn select(&self, rows: Range<usize>, out: &mut Vec<RowId>) {
        assert!(rows.end <= self.table.row_count(), "rows {rows:?} out of table bounds");
        let Some((first, rest)) = self.conjuncts.split_first() else {
            out.extend(rows.map(|r| r as RowId));
            return;
        };
        let start = out.len();
        first.drive(self.table, rows, out);
        let mut kept = start;
        for i in start..out.len() {
            let row = out[i];
            if rest.iter().all(|c| c.matches(self.table, row)) {
                out[kept] = row;
                kept += 1;
            }
        }
        out.truncate(kept);
    }
}

impl<'a> Conjunct<'a> {
    fn compile_into(table: &'a Table, pred: &'a Predicate, out: &mut Vec<Conjunct<'a>>) {
        let conjunct = match pred {
            Predicate::And(preds) => {
                preds.iter().for_each(|p| Conjunct::compile_into(table, p, out));
                return;
            }
            Predicate::StrEq { column, value } => {
                Conjunct::codes(table.column(*column), |d| d.code_of(value).into_iter().collect())
            }
            Predicate::StrIn { column, values } => Conjunct::codes(table.column(*column), |d| {
                values.iter().filter_map(|v| d.code_of(v)).collect()
            }),
            Predicate::Like { column, pattern } => Conjunct::codes(table.column(*column), |d| {
                d.iter().filter(|(_, s)| like_match(pattern, s)).map(|(c, _)| c).collect()
            }),
            // `<>` has no contiguous match range, so it stays row-wise.
            Predicate::IntCmp { column, op, value } if *op != CmpOp::Ne => {
                let v = *value;
                let bounds = match op {
                    CmpOp::Eq => Some((v, v)),
                    CmpOp::Lt => v.checked_sub(1).map(|high| (i64::MIN, high)),
                    CmpOp::Le => Some((i64::MIN, v)),
                    CmpOp::Gt => v.checked_add(1).map(|low| (low, i64::MAX)),
                    CmpOp::Ge => Some((v, i64::MAX)),
                    CmpOp::Ne => unreachable!("guarded above"),
                };
                match bounds {
                    Some((low, high)) => Conjunct::range(table.column(*column), low, high),
                    None => Conjunct::Never,
                }
            }
            Predicate::IntBetween { column, low, high } => {
                Conjunct::range(table.column(*column), *low, *high)
            }
            _ => Conjunct::Row(pred),
        };
        out.push(conjunct);
    }

    fn codes(col: &'a EncodedColumn, select: impl FnOnce(&StringDict) -> Vec<u32>) -> Self {
        let Some(codes) = col.dict().map(select) else { return Conjunct::Never };
        let (Some(&lo), Some(&hi)) = (codes.iter().min(), codes.iter().max()) else {
            return Conjunct::Never;
        };
        let mut bits = Bitmap::with_value((hi - lo) as usize + 1, false);
        codes.iter().for_each(|&c| bits.set((c - lo) as usize, true));
        Conjunct::Codes { col, set: CodeSet { lo, hi, bits } }
    }

    fn range(col: &'a EncodedColumn, low: i64, high: i64) -> Self {
        if col.data_type() != DataType::Int || low > high {
            return Conjunct::Never;
        }
        Conjunct::Range { col, low, high }
    }

    /// Appends the matching rows of `rows` to `out`, page by page.
    fn drive(&self, table: &Table, rows: Range<usize>, out: &mut Vec<RowId>) {
        match self {
            Conjunct::Codes { col, set } => for_each_page(rows, |p, local, base| {
                let page = col.code_page(p);
                if !page.disjoint_with(set.lo, set.hi) {
                    page.for_each_run(local, |start, end, code| {
                        if set.contains(code) {
                            push_non_null(col, base + start..base + end, out);
                        }
                    });
                }
            }),
            Conjunct::Range { col, low, high } => for_each_page(rows, |p, local, base| {
                let page = col.int_page(p);
                if !page.disjoint_with(*low, *high) {
                    page.for_each_run(local, |start, end, v| {
                        if (*low..=*high).contains(&v) {
                            push_non_null(col, base + start..base + end, out);
                        }
                    });
                }
            }),
            Conjunct::Never => {}
            Conjunct::Row(p) => {
                out.extend(rows.map(|r| r as RowId).filter(|&r| p.matches(table, r)));
            }
        }
    }

    /// Evaluates the conjunct for one row.
    #[inline]
    fn matches(&self, table: &Table, row: RowId) -> bool {
        match self {
            Conjunct::Codes { col, set } => {
                col.code_at(row as usize).is_some_and(|c| set.contains(c))
            }
            Conjunct::Range { col, low, high } => {
                col.int_at(row as usize).is_some_and(|v| (*low..=*high).contains(&v))
            }
            Conjunct::Never => false,
            Conjunct::Row(p) => p.matches(table, row),
        }
    }
}

/// Calls `f(page, page_local_rows, page_base)` for each page overlapping
/// `rows`, in order.
fn for_each_page(rows: Range<usize>, mut f: impl FnMut(usize, Range<usize>, usize)) {
    if rows.is_empty() {
        return;
    }
    for p in rows.start / PAGE_ROWS..=(rows.end - 1) / PAGE_ROWS {
        let base = p * PAGE_ROWS;
        f(p, rows.start.max(base) - base..rows.end.min(base + PAGE_ROWS) - base, base);
    }
}

/// Appends the non-null rows of `rows` to `out`.
#[inline]
fn push_non_null(col: &EncodedColumn, rows: Range<usize>, out: &mut Vec<RowId>) {
    let validity = col.validity();
    out.extend(rows.filter(|&r| validity.get(r)).map(|r| r as RowId));
}

/// SQL `LIKE` matching with `%` (any sequence) and `_` (any single char).
///
/// Matching is case sensitive, as in PostgreSQL.
pub fn like_match(pattern: &str, value: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let v: Vec<char> = value.chars().collect();
    like_rec(&p, &v)
}

fn like_rec(p: &[char], v: &[char]) -> bool {
    // Iterative greedy matcher with backtracking for '%'.
    let (mut pi, mut vi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while vi < v.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == v[vi]) {
            pi += 1;
            vi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, vi));
            pi += 1;
        } else if let Some((sp, sv)) = star {
            pi = sp + 1;
            vi = sv + 1;
            star = Some((sp, sv + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnMeta, TableBuilder};
    use crate::value::{DataType, Value};

    fn movies() -> Table {
        let mut b = TableBuilder::new(
            "title",
            vec![
                ColumnMeta::new("id", DataType::Int),
                ColumnMeta::new("title", DataType::Str),
                ColumnMeta::new("production_year", DataType::Int),
                ColumnMeta::new("kind", DataType::Str),
            ],
        );
        let rows: Vec<(i64, &str, Option<i64>, &str)> = vec![
            (1, "The Matrix", Some(1999), "movie"),
            (2, "The Matrix Reloaded", Some(2003), "movie"),
            (3, "Some Documentary", Some(2003), "documentary"),
            (4, "Old Short", Some(1950), "short"),
            (5, "Unknown Year", None, "movie"),
            (6, "matrix lowercase", Some(2010), "movie"),
        ];
        for (id, title, year, kind) in rows {
            b.push_row(vec![
                Value::Int(id),
                Value::Str(title.into()),
                year.map(Value::Int).unwrap_or(Value::Null),
                Value::Str(kind.into()),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.apply(3, 3));
        assert!(CmpOp::Ne.apply(3, 4));
        assert!(CmpOp::Lt.apply(3, 4));
        assert!(CmpOp::Le.apply(4, 4));
        assert!(CmpOp::Gt.apply(5, 4));
        assert!(CmpOp::Ge.apply(4, 4));
        assert_eq!(CmpOp::Eq.sql(), "=");
        assert_eq!(CmpOp::Ge.sql(), ">=");
    }

    #[test]
    fn int_cmp_and_between() {
        let t = movies();
        let year = t.column_id("production_year").unwrap();
        let p = Predicate::IntCmp { column: year, op: CmpOp::Gt, value: 2000 };
        assert_eq!(p.filter(&t), vec![1, 2, 5]);
        let p = Predicate::IntBetween { column: year, low: 1999, high: 2003 };
        assert_eq!(p.filter(&t), vec![0, 1, 2]);
    }

    #[test]
    fn null_handling_in_comparisons() {
        let t = movies();
        let year = t.column_id("production_year").unwrap();
        // The NULL year row never matches a comparison, like in SQL.
        let p = Predicate::IntCmp { column: year, op: CmpOp::Ne, value: 1999 };
        assert!(!p.filter(&t).contains(&4));
        let p = Predicate::IsNull { column: year };
        assert_eq!(p.filter(&t), vec![4]);
        let p = Predicate::IsNotNull { column: year };
        assert_eq!(p.filter(&t).len(), 5);
    }

    #[test]
    fn string_equality_and_in() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let p = Predicate::StrEq { column: kind, value: "movie".into() };
        assert_eq!(p.filter(&t), vec![0, 1, 4, 5]);
        let p =
            Predicate::StrIn { column: kind, values: vec!["short".into(), "documentary".into()] };
        assert_eq!(p.filter(&t), vec![2, 3]);
        let p = Predicate::StrEq { column: kind, value: "does not exist".into() };
        assert!(p.filter(&t).is_empty());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%Matrix%", "The Matrix Reloaded"));
        assert!(like_match("The %", "The Matrix"));
        assert!(!like_match("The %", "A Matrix"));
        assert!(like_match("%trix", "The Matrix"));
        assert!(like_match("_he Matrix", "The Matrix"));
        assert!(!like_match("_he Matrix", "TThe Matrix"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
        assert!(like_match("a%b%c", "a-x-b-y-c"));
        assert!(!like_match("a%b%c", "a-x-c"));
    }

    #[test]
    fn like_predicate_filters_via_dictionary() {
        let t = movies();
        let title = t.column_id("title").unwrap();
        let p = Predicate::Like { column: title, pattern: "%Matrix%".into() };
        assert_eq!(p.filter(&t), vec![0, 1]);
        // per-row evaluation agrees with the dictionary fast path
        let slow: Vec<RowId> = t.row_ids().filter(|&r| p.matches(&t, r)).collect();
        assert_eq!(p.filter(&t), slow);
    }

    #[test]
    fn and_or_not_composition() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let year = t.column_id("production_year").unwrap();
        let p = Predicate::And(vec![
            Predicate::StrEq { column: kind, value: "movie".into() },
            Predicate::IntCmp { column: year, op: CmpOp::Ge, value: 2003 },
        ]);
        assert_eq!(p.filter(&t), vec![1, 5]);
        let p = Predicate::Or(vec![
            Predicate::StrEq { column: kind, value: "short".into() },
            Predicate::StrEq { column: kind, value: "documentary".into() },
        ]);
        assert_eq!(p.filter(&t), vec![2, 3]);
        let p = Predicate::Not(Box::new(Predicate::StrEq { column: kind, value: "movie".into() }));
        assert_eq!(p.filter(&t), vec![2, 3]);
    }

    #[test]
    fn referenced_columns_deduplicated() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let year = t.column_id("production_year").unwrap();
        let p = Predicate::And(vec![
            Predicate::StrEq { column: kind, value: "movie".into() },
            Predicate::Or(vec![
                Predicate::IntCmp { column: year, op: CmpOp::Ge, value: 2000 },
                Predicate::IntCmp { column: year, op: CmpOp::Lt, value: 1960 },
            ]),
        ]);
        let mut expected = vec![kind, year];
        expected.sort();
        assert_eq!(p.referenced_columns(), expected);
    }

    #[test]
    fn int_fast_paths_agree_with_row_wise_evaluation() {
        let t = movies();
        let year = t.column_id("production_year").unwrap();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for value in [1950, 1999, 2003, 2004, i64::MIN, i64::MAX] {
                let p = Predicate::IntCmp { column: year, op, value };
                let slow: Vec<RowId> = t.row_ids().filter(|&r| p.matches(&t, r)).collect();
                assert_eq!(p.filter(&t), slow, "op {op:?} value {value}");
            }
        }
        let p = Predicate::IntBetween { column: year, low: 2003, high: 1999 };
        assert!(p.filter(&t).is_empty(), "inverted range matches nothing");
    }

    #[test]
    fn string_predicate_on_int_column_matches_nothing() {
        let t = movies();
        let id = t.column_id("id").unwrap();
        let p = Predicate::StrEq { column: id, value: "movie".into() };
        assert!(p.filter(&t).is_empty());
    }

    #[test]
    fn simple_equality_detection() {
        let t = movies();
        let kind = t.column_id("kind").unwrap();
        let year = t.column_id("production_year").unwrap();
        assert!(Predicate::StrEq { column: kind, value: "movie".into() }.is_simple_equality());
        assert!(Predicate::IntCmp { column: year, op: CmpOp::Eq, value: 1999 }.is_simple_equality());
        assert!(
            !Predicate::IntCmp { column: year, op: CmpOp::Gt, value: 1999 }.is_simple_equality()
        );
        assert!(!Predicate::Like { column: kind, pattern: "%m%".into() }.is_simple_equality());
    }
}
