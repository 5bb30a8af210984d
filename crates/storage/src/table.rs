//! A sharded multi-version table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use morphstream_common::error::Result;
use morphstream_common::{Key, MorphError, StateRef, TableId, Timestamp, Value};

use crate::version::{Version, VersionChain, WriterId};

/// Number of lock shards per table. Chosen to comfortably exceed typical
/// worker-thread counts so that uncontended keys rarely share a lock.
const SHARDS: usize = 64;

/// What one key costs in [`Shard::bytes`] on top of its chain's versions.
const KEY_BYTES: u64 = std::mem::size_of::<Key>() as u64;

#[derive(Default)]
struct Shard {
    chains: HashMap<Key, VersionChain>,
    /// Keys whose chain may hold more than one version: the only chains
    /// [`MvTable::truncate_before`] can shorten. A write pushes its key when
    /// the chain reaches exactly two versions, so between reclamations the
    /// list may carry duplicates and keys a rollback or seed shrank or
    /// removed; truncation sorts, dedups and compacts it. Unmaintained once
    /// the table is pinned.
    multi: Vec<Key>,
    /// Σ over `chains` of `VersionChain::bytes_retained() + KEY_BYTES`, kept
    /// current under the shard's write lock so that
    /// [`MvTable::bytes_retained`] never walks the chains.
    bytes: u64,
}

impl Shard {
    /// Re-account a chain whose retained bytes went from `before` to `after`.
    #[inline]
    fn rebytes(&mut self, before: u64, after: u64) {
        self.bytes = self.bytes - before + after;
    }
}

/// A multi-version table: one version chain per key, sharded for concurrent
/// access from the execution workers.
pub struct MvTable {
    id: TableId,
    name: String,
    default_value: Value,
    auto_create: bool,
    shards: Vec<RwLock<Shard>>,
    /// Total number of versions currently retained, across all shards.
    version_count: AtomicU64,
    /// Pinned tables are exempt from [`MvTable::truncate_before`]: windowed
    /// reads aggregate historical versions, so once a table serves windows
    /// its history must survive after-batch reclamation.
    pinned: std::sync::atomic::AtomicBool,
    /// Whether the table's *visible* state may have changed since the flag
    /// was last taken — the incremental-checkpoint cue. A new table starts
    /// dirty (it has never been captured by a checkpoint); afterwards the
    /// flag is set by every path that can change `snapshot_latest` (seed,
    /// preallocate, write); truncation keeps the latest version per key so
    /// it does not dirty.
    dirty: std::sync::atomic::AtomicBool,
}

impl MvTable {
    /// Create a table. `auto_create` controls whether a key that was never
    /// pre-allocated reads as `default_value` and is created by its first
    /// write (workloads such as OSED register new words on the fly, while
    /// the ledger tables are fully pre-allocated). Reads never create keys,
    /// and rolling back the write that created a key removes it again, so
    /// the key set depends only on committed writes — not on which
    /// operations of an aborting transaction happened to run first.
    pub fn new(
        id: TableId,
        name: impl Into<String>,
        default_value: Value,
        auto_create: bool,
    ) -> Self {
        let shards = (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect();
        Self {
            id,
            name: name.into(),
            default_value,
            auto_create,
            shards,
            version_count: AtomicU64::new(0),
            pinned: std::sync::atomic::AtomicBool::new(false),
            dirty: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Exempt this table from [`MvTable::truncate_before`] permanently. The
    /// engine pins every table serving windowed accesses: reclamation keeps
    /// only the newest version at the reclaiming watermark, which would
    /// silently empty trailing windows.
    pub fn pin(&self) {
        if !self.pinned.swap(true, Ordering::Relaxed) {
            // Pinned tables never truncate: drop the reclamation worklists.
            for shard in &self.shards {
                shard.write().multi = Vec::new();
            }
        }
    }

    /// Whether this table is exempt from truncation.
    pub fn is_pinned(&self) -> bool {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Table id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The value newly created keys start at.
    pub fn default_value(&self) -> Value {
        self.default_value
    }

    /// Whether keys materialise on first access.
    pub fn is_auto_create(&self) -> bool {
        self.auto_create
    }

    /// Mark the table's visible state as changed since the last checkpoint.
    pub fn mark_dirty(&self) {
        // Check-before-store keeps the steady state read-only: repeated
        // writes to an already-dirty table do not bounce the cache line.
        if !self.dirty.load(Ordering::Relaxed) {
            self.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the visible state may have changed since the flag was taken.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Clear the dirty flag, returning whether it was set — one checkpoint's
    /// "does this table need a new snapshot section" test.
    pub fn take_dirty(&self) -> bool {
        self.dirty.swap(false, Ordering::Relaxed)
    }

    #[inline]
    fn shard_index(key: Key) -> usize {
        // Fibonacci hashing spreads dense key ranges across shards.
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize;
        h % SHARDS
    }

    #[inline]
    fn shard_for(&self, key: Key) -> &RwLock<Shard> {
        &self.shards[Self::shard_index(key)]
    }

    fn state_ref(&self, key: Key) -> StateRef {
        StateRef::new(self.id, key)
    }

    /// Pre-allocate `keys` with the table's default value.
    pub fn preallocate<I: IntoIterator<Item = Key>>(&self, keys: I) {
        // Bucket by shard so each shard lock is taken once and its map grows
        // once; every new chain is identical, so its bytes are one constant.
        let mut buckets: Vec<Vec<Key>> = vec![Vec::new(); SHARDS];
        for key in keys {
            buckets[Self::shard_index(key)].push(key);
        }
        let initial = VersionChain::with_initial(self.default_value);
        let chain_bytes = initial.bytes_retained() + KEY_BYTES;
        let mut created = 0u64;
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = shard.write();
            shard.chains.reserve(bucket.len());
            let mut fresh = 0u64;
            for key in bucket {
                shard.chains.entry(key).or_insert_with(|| {
                    fresh += 1;
                    initial.clone()
                });
            }
            shard.bytes += fresh * chain_bytes;
            created += fresh;
        }
        self.version_count.fetch_add(created, Ordering::Relaxed);
        if created > 0 {
            self.mark_dirty();
        }
    }

    /// Pre-allocate the dense key range `[0, n)`.
    pub fn preallocate_range(&self, n: u64) {
        self.preallocate(0..n);
    }

    /// Set the value of `key` at timestamp 0, creating it if necessary. Used
    /// to seed initial balances before a run.
    pub fn seed(&self, key: Key, value: Value) {
        let chain = VersionChain::with_initial(value);
        let added = chain.bytes_retained() + KEY_BYTES;
        let mut shard = self.shard_for(key).write();
        shard.bytes += added;
        if let Some(prev) = shard.chains.insert(key, chain) {
            // replacing an existing chain: adjust the counters.
            shard.bytes -= prev.bytes_retained() + KEY_BYTES;
            let removed = prev.len() as u64;
            self.version_count.fetch_sub(removed, Ordering::Relaxed);
        }
        self.version_count.fetch_add(1, Ordering::Relaxed);
        self.mark_dirty();
    }

    /// Whether `key` exists in the table.
    pub fn contains(&self, key: Key) -> bool {
        self.shard_for(key).read().chains.contains_key(&key)
    }

    /// Number of keys in the table.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().chains.len()).sum()
    }

    /// Read the newest version visible to an operation at `(ts, stmt)`.
    pub fn read_before(&self, key: Key, ts: Timestamp, stmt: u32) -> Result<Value> {
        {
            let shard = self.shard_for(key).read();
            if let Some(chain) = shard.chains.get(&key) {
                return chain.read_before(ts, stmt).map(|v| v.value).ok_or(
                    MorphError::NoVisibleVersion {
                        state: self.state_ref(key),
                        at: ts,
                    },
                );
            }
        }
        if self.auto_create {
            Ok(self.default_value)
        } else {
            Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            })
        }
    }

    /// Read the latest value of `key` regardless of timestamp.
    pub fn read_latest(&self, key: Key) -> Result<Value> {
        let shard = self.shard_for(key).read();
        match shard.chains.get(&key) {
            Some(chain) => chain
                .latest()
                .map(|v| v.value)
                .ok_or(MorphError::NoVisibleVersion {
                    state: self.state_ref(key),
                    at: Timestamp::MAX,
                }),
            None if self.auto_create => Ok(self.default_value),
            None => Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            }),
        }
    }

    /// Append a new version of `key`.
    pub fn write(
        &self,
        key: Key,
        ts: Timestamp,
        stmt: u32,
        writer: WriterId,
        value: Value,
    ) -> Result<()> {
        let mut guard = self.shard_for(key).write();
        let shard = &mut *guard;
        let (chain, before) = match shard.chains.get_mut(&key) {
            Some(chain) => {
                let before = chain.bytes_retained();
                (chain, before)
            }
            None if self.auto_create => {
                self.version_count.fetch_add(1, Ordering::Relaxed);
                shard.bytes += KEY_BYTES;
                let chain = shard
                    .chains
                    .entry(key)
                    .or_insert_with(|| VersionChain::implicit(self.default_value));
                (chain, 0)
            }
            None => {
                return Err(MorphError::UnknownKey {
                    state: self.state_ref(key),
                })
            }
        };
        chain.insert(Version {
            ts,
            stmt,
            writer,
            value,
        });
        let (after, len) = (chain.bytes_retained(), chain.len());
        shard.rebytes(before, after);
        if len == 2 && !self.is_pinned() {
            shard.multi.push(key);
        }
        self.version_count.fetch_add(1, Ordering::Relaxed);
        self.mark_dirty();
        Ok(())
    }

    /// Remove every version of `key` written by `writer`, regardless of
    /// timestamp. **Engines must not use this for abort rollback** when
    /// writer ids are recycled across batches (batch-local op ids): it would
    /// delete committed versions surviving from earlier batches under a
    /// recycled id. Use [`MvTable::rollback_writer_at`] instead; this
    /// unscoped primitive exists for tests and single-batch tooling.
    pub fn rollback_writer(&self, key: Key, writer: WriterId) -> usize {
        self.rollback(key, |chain| chain.remove_writer(writer))
    }

    /// Remove the versions of `key` written by `writer` at exactly `ts` (see
    /// [`VersionChain::remove_writer_at`] for why aborts must scope their
    /// rollback when writer ids are recycled across batches).
    pub fn rollback_writer_at(&self, key: Key, writer: WriterId, ts: Timestamp) -> usize {
        self.rollback(key, |chain| chain.remove_writer_at(writer, ts))
    }

    /// Apply a rollback to `key`'s chain and return how many versions it
    /// removed. A key that only exists because a rolled-back write created
    /// it is removed with its implicit default version.
    fn rollback(&self, key: Key, remove: impl FnOnce(&mut VersionChain) -> usize) -> usize {
        let mut guard = self.shard_for(key).write();
        let shard = &mut *guard;
        let Some(chain) = shard.chains.get_mut(&key) else {
            return 0;
        };
        let before = chain.bytes_retained();
        let removed = remove(chain);
        let mut dropped = removed as u64;
        if removed > 0 && chain.only_implicit() {
            shard.chains.remove(&key);
            shard.bytes -= before + KEY_BYTES;
            dropped += 1;
        } else {
            let after = chain.bytes_retained();
            shard.rebytes(before, after);
        }
        self.version_count.fetch_sub(dropped, Ordering::Relaxed);
        removed
    }

    /// Versions of `key` whose timestamps fall inside `[lo, hi]`.
    pub fn window(&self, key: Key, lo: Timestamp, hi: Timestamp) -> Result<Vec<Version>> {
        let shard = self.shard_for(key).read();
        match shard.chains.get(&key) {
            Some(chain) => Ok(chain.window(lo, hi)),
            None if self.auto_create => Ok(Vec::new()),
            None => Err(MorphError::UnknownKey {
                state: self.state_ref(key),
            }),
        }
    }

    /// Drop versions older than the newest one at or before `ts`, for every
    /// key (the after-batch reclamation toggle). A no-op on pinned tables
    /// (see [`MvTable::pin`]).
    ///
    /// Cost: proportional to the keys written since the last reclamation
    /// (plus one lock per shard), not to the table size — only keys whose
    /// chain reached two versions are visited.
    pub fn truncate_before(&self, ts: Timestamp) {
        if self.is_pinned() {
            return;
        }
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut guard = shard.write();
            let Shard {
                chains,
                multi,
                bytes,
            } = &mut *guard;
            if multi.is_empty() {
                continue;
            }
            multi.sort_unstable();
            multi.dedup();
            // Keep only keys still holding several versions (a version newer
            // than `ts` survives); rolled-back keys are simply gone.
            multi.retain(|key| {
                let Some(chain) = chains.get_mut(key) else {
                    return false;
                };
                let (len, before) = (chain.len(), chain.bytes_retained());
                chain.truncate_before(ts);
                removed += (len - chain.len()) as u64;
                *bytes = *bytes - before + chain.bytes_retained();
                chain.len() > 1
            });
        }
        if removed > 0 {
            self.version_count.fetch_sub(removed, Ordering::Relaxed);
        }
    }

    /// Total number of retained versions.
    pub fn version_count(&self) -> u64 {
        self.version_count.load(Ordering::Relaxed)
    }

    /// Approximate bytes retained by the table's version chains: the sum of
    /// every chain's [`VersionChain::bytes_retained`] plus one key each.
    ///
    /// Cost: O(shards) — it sums counters kept current by every mutation.
    pub fn bytes_retained(&self) -> u64 {
        self.shards.iter().map(|s| s.read().bytes).sum()
    }

    /// Latest value of every key — used by tests to compare engines against a
    /// sequential oracle.
    pub fn snapshot_latest(&self) -> HashMap<Key, Value> {
        let mut out = HashMap::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (k, chain) in &shard.chains {
                if let Some(v) = chain.latest() {
                    out.insert(*k, v.value);
                }
            }
        }
        out
    }

    /// Latest value of every key, sorted by key — the form checkpoints and
    /// state digests consume. Fills one pre-sized vector straight from the
    /// shards instead of going through [`MvTable::snapshot_latest`]'s map.
    pub fn snapshot_latest_sorted(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(self.key_count());
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(
                shard
                    .chains
                    .iter()
                    .filter_map(|(k, chain)| chain.latest().map(|v| (*k, v.value))),
            );
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }
}

impl std::fmt::Debug for MvTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvTable")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("keys", &self.key_count())
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MvTable {
        let t = MvTable::new(TableId(0), "accounts", 1000, false);
        t.preallocate_range(16);
        t
    }

    #[test]
    fn preallocated_keys_start_at_default() {
        let t = table();
        assert_eq!(t.key_count(), 16);
        assert_eq!(t.read_latest(3).unwrap(), 1000);
        assert_eq!(t.read_before(3, 5, 0).unwrap(), 1000);
    }

    #[test]
    fn unknown_key_errors_without_auto_create() {
        let t = table();
        assert!(matches!(
            t.read_latest(999),
            Err(MorphError::UnknownKey { .. })
        ));
        assert!(t.write(999, 1, 0, 7, 5).is_err());
    }

    #[test]
    fn auto_create_tables_materialise_keys_on_demand() {
        let t = MvTable::new(TableId(1), "words", 0, true);
        assert_eq!(t.read_latest(42).unwrap(), 0);
        // reads see the default without creating the key
        assert_eq!(t.read_before(42, 3, 0).unwrap(), 0);
        assert!(!t.contains(42));
        t.write(42, 3, 0, 1, 7).unwrap();
        assert_eq!(t.read_latest(42).unwrap(), 7);
        assert!(t.contains(42));
    }

    #[test]
    fn rolling_back_the_creating_write_restores_absence() {
        let t = MvTable::new(TableId(1), "accounts", 1000, true);
        t.preallocate_range(2);
        let base = t.version_count();

        // an aborted write to a new key leaves no key behind
        t.write(7, 10, 0, 3, 1100).unwrap();
        assert!(t.contains(7));
        assert_eq!(t.rollback_writer_at(7, 3, 10), 1);
        assert!(!t.contains(7));
        assert_eq!(t.key_count(), 2);
        assert_eq!(t.version_count(), base);
        assert_eq!(t.read_latest(7).unwrap(), 1000);

        // a created key survives while another write to it stands
        t.write(8, 10, 0, 3, 1100).unwrap();
        t.write(8, 20, 0, 4, 1200).unwrap();
        assert_eq!(t.rollback_writer_at(8, 3, 10), 1);
        assert!(t.contains(8));
        assert_eq!(t.read_latest(8).unwrap(), 1200);
        assert_eq!(t.rollback_writer(8, 4), 1);
        assert!(!t.contains(8));

        // preallocated keys keep existing when their only write rolls back
        t.write(1, 10, 0, 5, 900).unwrap();
        assert_eq!(t.rollback_writer_at(1, 5, 10), 1);
        assert!(t.contains(1));
        assert_eq!(t.read_latest(1).unwrap(), 1000);
        assert_eq!(t.version_count(), base);
    }

    #[test]
    fn writes_are_visible_to_later_timestamps_only() {
        let t = table();
        t.write(5, 10, 0, 100, 1234).unwrap();
        assert_eq!(t.read_before(5, 10, 0).unwrap(), 1000);
        assert_eq!(t.read_before(5, 11, 0).unwrap(), 1234);
        assert_eq!(t.read_latest(5).unwrap(), 1234);
    }

    #[test]
    fn rollback_removes_only_the_writers_versions() {
        let t = table();
        t.write(5, 10, 0, 100, 1111).unwrap();
        t.write(5, 20, 0, 200, 2222).unwrap();
        assert_eq!(t.rollback_writer(5, 200), 1);
        assert_eq!(t.read_latest(5).unwrap(), 1111);
        assert_eq!(t.rollback_writer(5, 999), 0);
    }

    #[test]
    fn scoped_rollback_spares_recycled_writer_ids_from_earlier_batches() {
        let t = table();
        // Batch 1: op #3 commits a version; after-batch reclamation may leave
        // it as the key's only version.
        t.write(5, 10, 0, 3, 1111).unwrap();
        // Batch 2: a different transaction, same recycled op id #3, writes at
        // its own timestamp and then aborts.
        t.write(5, 20, 0, 3, 2222).unwrap();
        assert_eq!(t.rollback_writer_at(5, 3, 20), 1);
        // The committed version from batch 1 survives the rollback — the
        // unscoped rollback_writer would have deleted it too.
        assert_eq!(t.read_latest(5).unwrap(), 1111);
        assert_eq!(t.rollback_writer_at(5, 3, 999), 0);
        assert_eq!(t.rollback_writer_at(5, 999, 10), 0);
    }

    #[test]
    fn window_reads_return_versions_in_range() {
        let t = table();
        for ts in [10u64, 20, 30, 40] {
            t.write(7, ts, 0, ts, ts as Value).unwrap();
        }
        let versions = t.window(7, 15, 35).unwrap();
        let values: Vec<Value> = versions.iter().map(|v| v.value).collect();
        assert_eq!(values, vec![20, 30]);
    }

    #[test]
    fn truncation_reduces_version_count_but_keeps_latest() {
        let t = table();
        for ts in 1..=50u64 {
            t.write(2, ts, 0, ts, ts as Value).unwrap();
        }
        let before = t.version_count();
        t.truncate_before(50);
        assert!(t.version_count() < before);
        assert_eq!(t.read_latest(2).unwrap(), 50);
    }

    #[test]
    fn pinned_tables_are_exempt_from_truncation() {
        let t = table();
        for ts in 1..=20u64 {
            t.write(3, ts, 0, ts, ts as Value).unwrap();
        }
        assert!(!t.is_pinned());
        t.pin();
        assert!(t.is_pinned());
        let before = t.version_count();
        t.truncate_before(20);
        assert_eq!(t.version_count(), before);
        // the full window history survives
        assert_eq!(t.window(3, 1, 20).unwrap().len(), 20);
    }

    #[test]
    fn dirty_tracks_visible_state_changes_only() {
        // a new table is dirty by definition: never checkpointed
        let t = MvTable::new(TableId(0), "accounts", 1000, false);
        assert!(t.is_dirty());
        t.preallocate_range(4);
        assert!(t.take_dirty());
        assert!(!t.is_dirty());
        // preallocating existing keys changes nothing visible
        t.preallocate_range(4);
        assert!(!t.is_dirty());
        t.write(1, 5, 0, 1, 7).unwrap();
        assert!(t.take_dirty());
        // truncation keeps the latest version per key: stays clean
        t.truncate_before(5);
        assert!(!t.is_dirty());
        t.seed(2, 9);
        assert!(t.take_dirty());
        // reading a missing key of an auto-create table creates nothing
        let auto = MvTable::new(TableId(1), "words", 0, true);
        auto.take_dirty();
        assert_eq!(auto.read_before(3, 1, 0).unwrap(), 0);
        assert!(!auto.is_dirty());
    }

    #[test]
    fn seed_overrides_initial_value() {
        let t = table();
        t.seed(9, 77);
        assert_eq!(t.read_latest(9).unwrap(), 77);
        assert_eq!(t.read_before(9, 1, 0).unwrap(), 77);
    }

    #[test]
    fn snapshot_reflects_latest_values() {
        let t = table();
        t.write(0, 5, 0, 1, -5).unwrap();
        t.write(1, 6, 0, 2, 42).unwrap();
        let snap = t.snapshot_latest();
        assert_eq!(snap[&0], -5);
        assert_eq!(snap[&1], 42);
        assert_eq!(snap[&2], 1000);
    }

    #[test]
    fn bytes_and_version_counts_track_growth() {
        let t = table();
        let (b0, v0) = (t.bytes_retained(), t.version_count());
        for ts in 1..200u64 {
            t.write(ts % 16, ts, 0, ts, 1).unwrap();
        }
        assert!(t.bytes_retained() > b0);
        assert_eq!(t.version_count(), v0 + 199);
    }

    #[test]
    fn concurrent_writes_to_distinct_keys_do_not_lose_versions() {
        let t = std::sync::Arc::new(MvTable::new(TableId(2), "c", 0, false));
        t.preallocate_range(64);
        std::thread::scope(|s| {
            for thread in 0..8u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = (thread * 8 + i % 8) % 64;
                        t.write(key, thread * 1000 + i + 1, 0, thread * 1000 + i, 1)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.version_count(), 64 + 8 * 100);
    }
}
