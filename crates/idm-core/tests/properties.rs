//! Property-based tests of the core model invariants.

use idm_core::prelude::*;
use proptest::prelude::*;

// ---- Timestamp / civil-date properties --------------------------------

proptest! {
    /// Civil-date conversion roundtrips for any timestamp within a wide
    /// range (years ≈ 1500–2500).
    #[test]
    fn timestamp_roundtrip(secs in -15_000_000_000i64..15_000_000_000i64) {
        let t = Timestamp(secs);
        let (y, m, d) = t.to_ymd();
        let (h, mi, s) = t.to_hms();
        let rebuilt = Timestamp::from_ymd_hms(y, m, d, h, mi, s).expect("valid");
        prop_assert_eq!(rebuilt, t);
    }

    /// `to_ymd` always yields a valid calendar date.
    #[test]
    fn to_ymd_is_valid(secs in -15_000_000_000i64..15_000_000_000i64) {
        let (y, m, d) = Timestamp(secs).to_ymd();
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
        prop_assert!(Timestamp::from_ymd(y, m, d).is_ok());
    }

    /// Date ordering agrees with raw-second ordering.
    #[test]
    fn date_order_is_second_order(a in -1_000_000_000i64..1_000_000_000i64,
                                  b in -1_000_000_000i64..1_000_000_000i64) {
        let (ta, tb) = (Timestamp(a), Timestamp(b));
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
    }

    /// `plus_days` is additive.
    #[test]
    fn plus_days_additive(secs in -1_000_000_000i64..1_000_000_000i64,
                          d1 in -500i64..500, d2 in -500i64..500) {
        let t = Timestamp(secs);
        prop_assert_eq!(t.plus_days(d1).plus_days(d2), t.plus_days(d1 + d2));
    }
}

// ---- Value comparison properties ---------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Integer),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Boolean),
        "[a-z]{0,12}".prop_map(Value::Text),
        (-10_000_000_000i64..10_000_000_000i64).prop_map(|s| Value::Date(Timestamp(s))),
    ]
}

proptest! {
    /// compare() is antisymmetric where defined.
    #[test]
    fn value_compare_antisymmetric(a in arb_value(), b in arb_value()) {
        if let (Some(ab), Some(ba)) = (a.compare(&b), b.compare(&a)) {
            prop_assert_eq!(ab, ba.reverse());
        }
    }

    /// compare() with self is Equal (except NaN, excluded by generation).
    #[test]
    fn value_compare_reflexive(a in arb_value()) {
        prop_assert_eq!(a.compare(&a), Some(std::cmp::Ordering::Equal));
    }

    /// Cross-domain comparisons are only defined for numeric pairs.
    #[test]
    fn value_compare_domain_rules(a in arb_value(), b in arb_value()) {
        let numeric = |v: &Value| matches!(v, Value::Integer(_) | Value::Float(_));
        let defined = a.compare(&b).is_some();
        if a.domain() == b.domain() {
            prop_assert!(defined);
        } else if !(numeric(&a) && numeric(&b)) {
            prop_assert!(!defined);
        }
    }
}

// ---- Tuple component properties -----------------------------------------

proptest! {
    /// A tuple built from (name, value) pairs retrieves every value by
    /// its first occurrence's name.
    #[test]
    fn tuple_of_get_consistent(pairs in proptest::collection::vec(("[a-f]{1,4}", arb_value()), 0..8)) {
        let tuple = TupleComponent::of(
            pairs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect(),
        );
        prop_assert_eq!(tuple.schema().arity(), pairs.len());
        for (name, _) in &pairs {
            let first = pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()).unwrap();
            prop_assert_eq!(tuple.get(name), Some(&first));
        }
    }

    /// Schema validation rejects any arity mismatch.
    #[test]
    fn tuple_arity_enforced(n_schema in 0usize..6, n_values in 0usize..6) {
        let schema = Schema::of(&vec![("a", Domain::Integer); n_schema]
            .iter().enumerate().map(|(i, _)| {
                // names must be distinct strings: leak tiny names
                (Box::leak(format!("a{i}").into_boxed_str()) as &str, Domain::Integer)
            }).collect::<Vec<_>>());
        let values = vec![Value::Integer(1); n_values];
        let result = TupleComponent::new(schema, values);
        prop_assert_eq!(result.is_ok(), n_schema == n_values);
    }
}

// ---- Group component invariants -----------------------------------------

proptest! {
    /// GroupData always maintains S ∩ Q = ∅ and a duplicate-free S.
    #[test]
    fn group_invariants(set in proptest::collection::vec(0u64..30, 0..15),
                        seq in proptest::collection::vec(0u64..30, 0..15)) {
        let set: Vec<Vid> = set.into_iter().map(Vid::from_raw).collect();
        let seq: Vec<Vid> = seq.into_iter().map(Vid::from_raw).collect();
        match GroupData::new(set.clone(), seq.clone()) {
            Ok(data) => {
                // S has no duplicates.
                let mut s: Vec<Vid> = data.set().to_vec();
                s.sort();
                s.dedup();
                prop_assert_eq!(s.len(), data.set().len());
                // S and Q are disjoint.
                prop_assert!(data.set().iter().all(|v| !data.seq().contains(v)));
                // Q is preserved exactly.
                prop_assert_eq!(data.seq(), &seq[..]);
            }
            Err(_) => {
                // Construction only fails when some set member appears
                // in the sequence.
                prop_assert!(set.iter().any(|v| seq.contains(v)));
            }
        }
    }
}

// ---- Store / graph properties -------------------------------------------

proptest! {
    /// Random graphs: descendants() terminates, reports no duplicates,
    /// and agrees with is_indirectly_related on every pair.
    #[test]
    fn traversal_consistency(edges in proptest::collection::vec((0u64..12, 0u64..12), 0..40)) {
        let store = ViewStore::new();
        let vids: Vec<Vid> = (0..12).map(|i| store.build(format!("n{i}")).insert()).collect();
        // Group edges (deduplicated per parent via the set S).
        let mut adjacency: std::collections::HashMap<Vid, Vec<Vid>> = Default::default();
        for (a, b) in edges {
            adjacency.entry(vids[a as usize]).or_default().push(vids[b as usize]);
        }
        for (parent, children) in &adjacency {
            store.set_group(*parent, Group::of_set(children.clone())).unwrap();
        }

        let root = vids[0];
        let reached = idm_core::graph::descendants(&store, root, usize::MAX).unwrap();
        // No duplicates.
        let mut sorted = reached.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), reached.len());
        // Agreement with the pairwise reachability check.
        for &v in &vids {
            let in_bfs = reached.contains(&v);
            let reachable = idm_core::graph::is_indirectly_related(&store, root, v).unwrap();
            prop_assert_eq!(in_bfs, reachable, "vid {} from root", v);
        }
    }

    /// Insert, batch insert, remove and a failed remove keep len()
    /// equal to the live views (the counter equals the slot scan) and
    /// ids stable.
    #[test]
    fn store_len_consistency(ops in proptest::collection::vec((0u8..4, 0usize..5), 1..60)) {
        let store = ViewStore::new();
        let mut live: Vec<Vid> = Vec::new();
        let mut removed: Vec<Vid> = Vec::new();
        for (i, (op, n)) in ops.into_iter().enumerate() {
            match op {
                0 => live.push(store.build(format!("v{i}")).insert()),
                1 => {
                    let batch = (0..n)
                        .map(|k| store.build(format!("b{i}.{k}")).into_record())
                        .collect();
                    live.extend(store.insert_batch(batch));
                }
                2 if !live.is_empty() => {
                    let vid = live.swap_remove(n % live.len());
                    store.remove(vid).unwrap();
                    removed.push(vid);
                }
                _ => {
                    let ghost = removed.get(n).copied().unwrap_or(Vid::from_raw(10_000));
                    prop_assert!(store.remove(ghost).is_err());
                }
            }
            prop_assert_eq!(store.len(), live.len());
            prop_assert_eq!(store.len(), store.vids().len());
            let report = store.verify_invariants();
            prop_assert!(report.is_ok(), "{:?}", report.violations);
        }
        for vid in live {
            prop_assert!(store.contains(vid));
        }
    }
}
