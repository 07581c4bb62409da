//! Property-based tests for the storage primitives.

use proptest::prelude::*;
use qob_storage::encoding::{CodePage, IntPage};
use qob_storage::predicate::like_match;
use qob_storage::{
    Bitmap, CmpOp, ColumnBuilder, ColumnMeta, DataType, EncodingPolicy, PageData, Predicate,
    Selection, TableBuilder, Value,
};

/// Values likely to exercise every int encoding: negatives, dense ranges
/// (frame-of-reference), repeats (RLE), and the extremes.
fn int_slot() -> impl Strategy<Value = i64> {
    prop_oneof![
        5 => -50i64..50,
        2 => 1_000_000i64..1_000_100,
        1 => any::<i64>(),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ]
}

/// Codes likely to exercise every code encoding, including the widest
/// possible dictionary code.
fn code_slot() -> impl Strategy<Value = u32> {
    prop_oneof![
        5 => 0u32..8,
        2 => 0u32..100_000,
        1 => Just(u32::MAX),
    ]
}

proptest! {
    /// A bitmap built from a boolean vector reproduces it exactly.
    #[test]
    fn bitmap_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..512)) {
        let bm: Bitmap = bits.iter().copied().collect();
        prop_assert_eq!(bm.len(), bits.len());
        prop_assert_eq!(bm.count_ones(), bits.iter().filter(|b| **b).count());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(bm.get(i), b);
        }
        let expected_indices: Vec<usize> =
            bits.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i).collect();
        prop_assert_eq!(bm.set_indices(), expected_indices);
    }

    /// AND/OR/NOT on bitmaps agree with element-wise boolean logic.
    #[test]
    fn bitmap_boolean_algebra(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 0..300)
    ) {
        let a: Bitmap = pairs.iter().map(|(x, _)| *x).collect();
        let b: Bitmap = pairs.iter().map(|(_, y)| *y).collect();
        let mut and = a.clone();
        and.and_with(&b);
        let mut or = a.clone();
        or.or_with(&b);
        let mut not_a = a.clone();
        not_a.negate();
        for (i, (x, y)) in pairs.iter().enumerate() {
            prop_assert_eq!(and.get(i), *x && *y);
            prop_assert_eq!(or.get(i), *x || *y);
            prop_assert_eq!(not_a.get(i), !*x);
        }
        prop_assert_eq!(not_a.count_ones(), pairs.len() - a.count_ones());
    }

    /// An exact-match LIKE pattern (no wildcards) behaves like equality, and
    /// a pattern wrapped in % behaves like substring containment.
    #[test]
    fn like_matches_equality_and_containment(
        needle in "[a-z]{0,6}",
        hay in "[a-z]{0,12}",
    ) {
        prop_assert_eq!(like_match(&needle, &hay), needle == hay);
        let contains_pattern = format!("%{needle}%");
        prop_assert_eq!(like_match(&contains_pattern, &hay), hay.contains(&needle));
        let prefix_pattern = format!("{needle}%");
        prop_assert_eq!(like_match(&prefix_pattern, &hay), hay.starts_with(&needle));
        let suffix_pattern = format!("%{needle}");
        prop_assert_eq!(like_match(&suffix_pattern, &hay), hay.ends_with(&needle));
    }

    /// Selecting a random row range of a table with an integer comparison
    /// matches the same comparison applied per row over that range.
    #[test]
    fn int_filter_agrees_with_scan(values in prop::collection::vec(proptest::option::of(-50i64..50), 1..200), threshold in -50i64..50, a in 0usize..200, b in 0usize..200) {
        let mut builder = TableBuilder::new("t", vec![ColumnMeta::new("v", DataType::Int)]);
        for v in &values {
            builder.push_row(vec![v.map(Value::Int).unwrap_or(Value::Null)]).unwrap();
        }
        let t = builder.finish();
        let col = t.column_id("v").unwrap();
        let (lo, hi) = (a.min(b).min(values.len()), a.max(b).min(values.len()));
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let pred = [Predicate::IntCmp { column: col, op, value: threshold }];
            let mut selected = vec![u32::MAX];
            Selection::compile(&t, &pred).select(lo..hi, &mut selected);
            let mut expected = vec![u32::MAX];
            expected.extend(
                (lo..hi)
                    .filter(|&i| values[i].map(|v| op.apply(v, threshold)).unwrap_or(false))
                    .map(|i| i as u32),
            );
            prop_assert_eq!(&selected, &expected);
        }
    }

    /// Dictionary-encoded string columns return exactly the pushed strings.
    #[test]
    fn string_column_roundtrip(strings in prop::collection::vec(proptest::option::of("[a-c]{0,3}"), 0..100)) {
        let mut builder = ColumnBuilder::new(DataType::Str);
        for s in &strings {
            let v = s.clone().map(Value::Str).unwrap_or(Value::Null);
            prop_assert!(builder.push(&v));
        }
        let col = builder.finish();
        prop_assert_eq!(col.len(), strings.len());
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(col.str_at(i), s.as_deref());
        }
        let distinct_expected: std::collections::HashSet<&String> =
            strings.iter().flatten().collect();
        prop_assert_eq!(col.distinct_count_exact(), distinct_expected.len());
    }

    /// Every int-page encoding is an identity on its stored slot values —
    /// per-slot `get`, bulk `decode_into`, and the snapshot byte format all
    /// reproduce the input exactly, under both policies.
    #[test]
    fn int_page_roundtrip(
        slots in prop::collection::vec((int_slot(), any::<bool>()), 0..300),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let values: Vec<i64> = slots.iter().map(|(v, _)| *v).collect();
        let valid: Vec<bool> = slots.iter().map(|(_, ok)| *ok).collect();
        let page = IntPage::encode(&values, &valid, policy);
        prop_assert_eq!(page.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(page.get(i), v, "slot {} diverges", i);
        }
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &values);
        let expected = values.iter().zip(&valid).filter(|(_, ok)| **ok).map(|(v, _)| *v);
        prop_assert_eq!(page.min_max(), expected.clone().map(|v| (v, v)).reduce(
            |(lo, hi), (v, _)| (lo.min(v), hi.max(v))
        ));
        let bytes = PageData::Int(page.clone()).to_bytes();
        prop_assert_eq!(PageData::from_bytes(&bytes).unwrap(), PageData::Int(page));
    }

    /// Long runs of one value (the shape NULL backfilling produces) always
    /// survive the round-trip — the RLE path specifically.
    #[test]
    fn int_page_roundtrip_on_null_runs(
        runs in prop::collection::vec((int_slot(), 1usize..40, any::<bool>()), 0..12),
    ) {
        let mut values = Vec::new();
        let mut valid = Vec::new();
        for (v, n, ok) in &runs {
            values.extend(std::iter::repeat_n(*v, *n));
            valid.extend(std::iter::repeat_n(*ok, *n));
        }
        let page = IntPage::encode(&values, &valid, EncodingPolicy::Auto);
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &values);
        let bytes = PageData::Int(page.clone()).to_bytes();
        prop_assert_eq!(PageData::from_bytes(&bytes).unwrap(), PageData::Int(page));
    }

    /// Every code-page encoding is an identity on its stored codes,
    /// including `u32::MAX` (the widest packable width).
    #[test]
    fn code_page_roundtrip(
        slots in prop::collection::vec((code_slot(), any::<bool>()), 0..300),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let codes: Vec<u32> = slots.iter().map(|(c, _)| *c).collect();
        let valid: Vec<bool> = slots.iter().map(|(_, ok)| *ok).collect();
        let page = CodePage::encode(&codes, &valid, policy);
        prop_assert_eq!(page.len(), codes.len());
        for (i, &c) in codes.iter().enumerate() {
            prop_assert_eq!(page.get(i), c, "slot {} diverges", i);
        }
        let mut decoded = Vec::new();
        page.decode_into(&mut decoded);
        prop_assert_eq!(&decoded, &codes);
        let bytes = PageData::Code(page.clone()).to_bytes();
        prop_assert_eq!(PageData::from_bytes(&bytes).unwrap(), PageData::Code(page));
    }

    /// An int *column* built from arbitrary optional values (NULL runs,
    /// negatives, extremes) reads back exactly, under both policies — the
    /// builder's null-slot fill values never leak into visible rows.
    #[test]
    fn int_column_roundtrip(
        values in prop::collection::vec(proptest::option::of(int_slot()), 0..300),
        policy in prop_oneof![Just(EncodingPolicy::Auto), Just(EncodingPolicy::Plain)],
    ) {
        let mut builder = ColumnBuilder::with_policy(DataType::Int, policy);
        for v in &values {
            prop_assert!(builder.push(&v.map(Value::Int).unwrap_or(Value::Null)));
        }
        let col = builder.finish();
        prop_assert_eq!(col.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.int_at(i), *v, "row {} diverges", i);
            prop_assert_eq!(col.is_null(i), v.is_none());
        }
    }
}
