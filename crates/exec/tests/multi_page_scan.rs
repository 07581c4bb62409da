//! The executor's morsel scans over multi-page tables: with a morsel size
//! that does not divide the page size, scan ranges start and end mid-page,
//! and the pipeline must still agree with ground truth exactly.

use qob_exec::operators::scan;
use qob_exec::{
    execute_plan, materialize_plan, true_cardinalities, ExecutionOptions, Materialized,
    TrueCardinalityOptions,
};
use qob_plan::{BaseRelation, JoinAlgorithm, JoinEdge, JoinKey, PhysicalPlan, QuerySpec, RelSet};
use qob_storage::{
    CmpOp, ColumnId, ColumnMeta, DataType, Database, Predicate, TableBuilder, Value,
};

const MOVIES: i64 = 150_000;

/// `movies(id, year, kind)` over three pages — `year` and `kind` in runs of
/// 1,234 rows that straddle page and morsel boundaries, some NULL — and
/// `info(movie_id)` with one row per movie in a scattered order.
fn setup() -> (Database, QuerySpec) {
    let mut movies = TableBuilder::new(
        "movies",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("year", DataType::Int),
            ColumnMeta::new("kind", DataType::Str),
        ],
    );
    for i in 0..MOVIES {
        let run = i / 1_234;
        let year = if run % 11 == 5 { Value::Null } else { Value::Int(1900 + run % 120) };
        movies
            .push_row(vec![Value::Int(i + 1), year, Value::Str(format!("k{}", run % 6))])
            .unwrap();
    }
    let mut info = TableBuilder::new("info", vec![ColumnMeta::new("movie_id", DataType::Int)]);
    for i in 0..MOVIES {
        info.push_row(vec![Value::Int(i * 7_919 % MOVIES + 1)]).unwrap();
    }
    let mut db = Database::new();
    let m = db.add_table(movies.finish()).unwrap();
    let inf = db.add_table(info.finish()).unwrap();
    let predicates = vec![
        Predicate::StrIn { column: ColumnId(2), values: vec!["k1".into(), "k4".into()] },
        Predicate::IntCmp { column: ColumnId(1), op: CmpOp::Ge, value: 1950 },
    ];
    let q = QuerySpec::new(
        "multi_page",
        vec![BaseRelation::filtered(m, "m", predicates), BaseRelation::unfiltered(inf, "i")],
        vec![JoinEdge { left: 0, left_column: ColumnId(0), right: 1, right_column: ColumnId(0) }],
    );
    (db, q)
}

#[test]
fn morsel_scans_match_ground_truth_when_morsels_split_pages() {
    let (db, q) = setup();
    assert_eq!(db.table(q.relations[0].table).column(ColumnId(1)).page_count(), 3);
    let truth = true_cardinalities(&db, &q, &TrueCardinalityOptions::default()).unwrap();
    let filtered = scan(&db, &q, 0);
    assert_eq!(truth[&RelSet::single(0)], filtered.len() as u64);
    assert!(filtered.len() > 10_000, "the filter keeps rows on every page");
    let key =
        JoinKey { left_rel: 0, left_column: ColumnId(0), right_rel: 1, right_column: ColumnId(0) };
    let flipped =
        JoinKey { left_rel: 1, left_column: ColumnId(0), right_rel: 0, right_column: ColumnId(0) };
    // The filtered scan as the probe-side source, then as the build side.
    let plans = [
        PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(1),
            PhysicalPlan::scan(0),
            vec![flipped],
        ),
        PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key],
        ),
    ];
    let hint = |_: RelSet| 1_000.0;
    for threads in [1, 4] {
        let options = ExecutionOptions { threads, morsel_size: 10_000, ..Default::default() };
        let (rows, _) = materialize_plan(
            &db,
            &q,
            &PhysicalPlan::scan(0),
            &hint,
            &options,
            &Materialized::new(),
        )
        .unwrap();
        let tuples = |i: &qob_exec::Intermediate| {
            i.tuples_in(0..i.len()).map(|t| t.to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(tuples(&rows), tuples(&filtered), "threads {threads}");
        for plan in &plans {
            let result = execute_plan(&db, &q, plan, &hint, &options).unwrap();
            assert_eq!(result.rows, truth[&RelSet::from_iter([0, 1])], "threads {threads}");
            assert!(!result.operator_cardinalities.is_empty());
            for (set, rows) in &result.operator_cardinalities {
                assert_eq!(*rows, truth[set], "threads {threads}, operator {set:?}");
            }
        }
    }
}
