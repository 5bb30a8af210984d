//! Property-based tests for the multi-version state table.
//!
//! These check the storage invariants the executor relies on:
//! * version chains stay ordered regardless of insertion order;
//! * rollback of a writer restores exactly the state visible before it wrote;
//! * windowed reads return precisely the versions inside the window;
//! * the sequence of visible values at increasing timestamps is consistent
//!   with replaying the writes in timestamp order;
//! * the table's incremental bookkeeping (reclamation worklists, version and
//!   byte counters) agrees with a model that truncates every chain.

use std::collections::HashMap;

use proptest::prelude::*;

use morphstream_common::{Key, TableId, Timestamp, Value};
use morphstream_storage::{MvTable, Version, VersionChain, WriterId};

/// Keys the model test draws from; the last two are never preallocated.
const MODEL_KEYS: Key = 6;

#[derive(Debug, Clone)]
enum Op {
    Write(Key, Timestamp, u32, WriterId, Value),
    Rollback(Key, WriterId, Timestamp),
    /// Roll back the `n`-th earlier write (modulo), so that rollbacks hit.
    RollbackWritten(usize),
    Seed(Key, Value),
    Pin,
    Truncate(Timestamp),
}

fn op() -> impl Strategy<Value = Op> {
    // One selector draws the kind of step; pins stay rare so that most
    // sequences exercise truncation on an unpinned table.
    (
        0u8..64,
        0..MODEL_KEYS,
        1u64..12,
        0u32..3,
        0u64..4,
        -50i64..50,
    )
        .prop_map(|(pick, key, ts, stmt, writer, value)| match pick {
            0..=31 => Op::Write(key, ts, stmt, writer, value),
            32..=39 => Op::RollbackWritten(value.unsigned_abs() as usize),
            40..=43 => Op::Rollback(key, writer, ts),
            44..=47 => Op::Seed(key, value),
            48 => Op::Pin,
            _ => Op::Truncate(ts + stmt as u64),
        })
}

/// The reference the table must agree with: plain chains, every one of them
/// truncated on reclamation.
struct Model {
    chains: HashMap<Key, VersionChain>,
    default_value: Value,
    auto_create: bool,
    pinned: bool,
}

impl Model {
    /// Apply `op` to the model; returns what the table call should return
    /// (write success, rolled-back version count), or `None` for no value.
    fn apply(&mut self, op: &Op) -> Option<i64> {
        match *op {
            Op::Write(key, ts, stmt, writer, value) => {
                if !self.chains.contains_key(&key) && !self.auto_create {
                    return Some(0);
                }
                let default_value = self.default_value;
                self.chains
                    .entry(key)
                    .or_insert_with(|| VersionChain::implicit(default_value))
                    .insert(Version {
                        ts,
                        stmt,
                        writer,
                        value,
                    });
                Some(1)
            }
            Op::Rollback(key, writer, ts) => {
                let Some(chain) = self.chains.get_mut(&key) else {
                    return Some(0);
                };
                let removed = chain.remove_writer_at(writer, ts);
                if removed > 0 && chain.only_implicit() {
                    self.chains.remove(&key);
                }
                Some(removed as i64)
            }
            Op::Seed(key, value) => {
                self.chains.insert(key, VersionChain::with_initial(value));
                None
            }
            Op::Pin => {
                self.pinned = true;
                None
            }
            Op::RollbackWritten(_) => unreachable!("resolved before applying"),
            Op::Truncate(ts) => {
                if !self.pinned {
                    for chain in self.chains.values_mut() {
                        chain.truncate_before(ts);
                    }
                }
                None
            }
        }
    }
}

fn apply(table: &MvTable, op: &Op) -> Option<i64> {
    match *op {
        Op::Write(key, ts, stmt, writer, value) => {
            Some(table.write(key, ts, stmt, writer, value).is_ok() as i64)
        }
        Op::Rollback(key, writer, ts) => Some(table.rollback_writer_at(key, writer, ts) as i64),
        Op::Seed(key, value) => {
            table.seed(key, value);
            None
        }
        Op::Pin => {
            table.pin();
            None
        }
        Op::RollbackWritten(_) => unreachable!("resolved before applying"),
        Op::Truncate(ts) => {
            table.truncate_before(ts);
            None
        }
    }
}

fn assert_agrees(table: &MvTable, model: &Model) {
    let versions: usize = model.chains.values().map(VersionChain::len).sum();
    prop_assert_eq!(table.version_count(), versions as u64);
    let bytes: u64 = model
        .chains
        .values()
        .map(|c| c.bytes_retained() + std::mem::size_of::<Key>() as u64)
        .sum();
    prop_assert_eq!(table.bytes_retained(), bytes);
    prop_assert_eq!(table.key_count(), model.chains.len());
    for key in 0..MODEL_KEYS {
        let (latest, window) = match model.chains.get(&key) {
            Some(chain) => (
                chain.latest().map(|v| v.value),
                Some(chain.versions().to_vec()),
            ),
            None if model.auto_create => (Some(model.default_value), Some(Vec::new())),
            None => (None, None),
        };
        prop_assert_eq!(table.read_latest(key).ok(), latest);
        prop_assert_eq!(table.window(key, 0, Timestamp::MAX).ok(), window);
    }
    let mut expected: Vec<(Key, Value)> = table.snapshot_latest().into_iter().collect();
    expected.sort_unstable();
    prop_assert_eq!(table.snapshot_latest_sorted(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chain_stays_sorted_under_arbitrary_insertion_order(
        mut entries in proptest::collection::vec((1u64..1000, 0u32..4, 0i64..100), 1..60)
    ) {
        let mut chain = VersionChain::with_initial(0);
        for (i, (ts, stmt, value)) in entries.drain(..).enumerate() {
            chain.insert(Version { ts, stmt, writer: i as u64, value });
        }
        let versions = chain.versions();
        for w in versions.windows(2) {
            prop_assert!((w[0].ts, w[0].stmt) <= (w[1].ts, w[1].stmt));
        }
    }

    #[test]
    fn read_before_matches_linear_scan(
        entries in proptest::collection::vec((1u64..200, 0i64..100), 1..50),
        probe_ts in 1u64..220
    ) {
        let mut chain = VersionChain::with_initial(7);
        for (i, (ts, value)) in entries.iter().enumerate() {
            chain.insert(Version { ts: *ts, stmt: 0, writer: i as u64, value: *value });
        }
        // Oracle: newest version with ts < probe_ts, ties broken by insertion
        // order among equal (ts, stmt) pairs — which matches append order.
        let expected = chain
            .versions()
            .iter()
            .rev()
            .find(|v| v.ts < probe_ts)
            .map(|v| v.value);
        let got = chain.read_before(probe_ts, 0).map(|v| v.value);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rollback_restores_pre_writer_visibility(
        writes in proptest::collection::vec((1u64..100, 0i64..1000), 1..40),
        victim_idx in 0usize..40
    ) {
        let table = MvTable::new(TableId(0), "t", 0, false);
        table.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            table.write(0, *ts, 0, i as u64, *value).unwrap();
        }
        let victim = (victim_idx % writes.len()) as u64;
        // Oracle table: replay every write except the victim's.
        let oracle = MvTable::new(TableId(1), "o", 0, false);
        oracle.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            if i as u64 != victim {
                oracle.write(0, *ts, 0, i as u64, *value).unwrap();
            }
        }
        table.rollback_writer(0, victim);
        prop_assert_eq!(table.read_latest(0).unwrap(), oracle.read_latest(0).unwrap());
        // Visibility at every probe timestamp matches as well.
        for probe in [1u64, 25, 50, 75, 100, 101] {
            prop_assert_eq!(
                table.read_before(0, probe, 0).unwrap(),
                oracle.read_before(0, probe, 0).unwrap()
            );
        }
    }

    #[test]
    fn window_reads_return_exactly_in_range_versions(
        writes in proptest::collection::vec((1u64..100, 0i64..1000), 0..40),
        lo in 0u64..100,
        span in 0u64..100
    ) {
        let table = MvTable::new(TableId(0), "t", 0, false);
        table.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            table.write(0, *ts, 0, i as u64, *value).unwrap();
        }
        let hi = lo.saturating_add(span);
        let got: Vec<i64> = table.window(0, lo, hi).unwrap().iter().map(|v| v.value).collect();
        let mut expected: Vec<(u64, i64)> = writes
            .iter()
            .filter(|(ts, _)| *ts >= lo && *ts <= hi)
            .map(|(ts, v)| (*ts, *v))
            .collect();
        if lo == 0 {
            // the initial seed version lives at timestamp 0
            expected.insert(0, (0, 0));
        }
        expected.sort_by_key(|(ts, _)| *ts);
        // Compare multisets of values at each timestamp: equal timestamps may
        // be ordered by insertion, so compare sorted pairs.
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        let mut exp_values: Vec<i64> = expected.iter().map(|(_, v)| *v).collect();
        exp_values.sort_unstable();
        prop_assert_eq!(got_sorted, exp_values);
    }

    #[test]
    fn truncation_never_changes_the_latest_visible_value(
        writes in proptest::collection::vec((1u64..100, 0i64..1000), 1..40),
        cut in 1u64..120
    ) {
        let table = MvTable::new(TableId(0), "t", 0, false);
        table.preallocate_range(1);
        for (i, (ts, value)) in writes.iter().enumerate() {
            table.write(0, *ts, 0, i as u64, *value).unwrap();
        }
        let latest_before = table.read_latest(0).unwrap();
        table.truncate_before(cut);
        prop_assert_eq!(table.read_latest(0).unwrap(), latest_before);
    }

    #[test]
    fn incremental_bookkeeping_matches_a_full_walk_model(
        auto_create in (0u8..2).prop_map(|b| b == 1),
        ops in proptest::collection::vec(op(), 1..80)
    ) {
        let table = MvTable::new(TableId(0), "t", 100, auto_create);
        let mut model = Model {
            chains: HashMap::new(),
            default_value: 100,
            auto_create,
            pinned: false,
        };
        if !auto_create {
            table.preallocate_range(MODEL_KEYS - 2);
            for key in 0..MODEL_KEYS - 2 {
                model.chains.insert(key, VersionChain::with_initial(100));
            }
        }
        assert_agrees(&table, &model);
        let mut written = Vec::new();
        for op in ops {
            let op = match op {
                Op::Write(key, ts, _, writer, _) => {
                    written.push((key, writer, ts));
                    op
                }
                Op::RollbackWritten(n) if !written.is_empty() => {
                    let (key, writer, ts) = written[n % written.len()];
                    Op::Rollback(key, writer, ts)
                }
                Op::RollbackWritten(_) => Op::Truncate(0),
                op => op,
            };
            let got = apply(&table, &op);
            let expected = model.apply(&op);
            prop_assert_eq!(got, expected, "{:?}", op);
            assert_agrees(&table, &model);
        }
    }
}
