//! Group commit: coalescing concurrent WAL appends into one fsync.
//!
//! PR 5 made every mutation durable with an fsync-per-append discipline —
//! correct, but the fsync dominates the write path as soon as more than
//! one thread (or one bulk load) is appending. [`GroupCommitWal`] wraps
//! the raw [`WalWriter`] with two coalescing strategies:
//!
//! * **Leader/follower groups** for concurrent appenders: each appender
//!   enqueues its record and takes a sequence number; the first appender
//!   to find no flush in flight becomes the *leader*, drains the whole
//!   pending queue, and writes it as one buffered
//!   [`WalWriter::append_batch`] (one `write_all`, one covering
//!   `sync_data`). Followers block until the acknowledged sequence
//!   passes their own. An append returns `Ok` **only after the covering
//!   fsync**, so the PR 5 crash-matrix guarantee — recovery yields an
//!   exact prefix containing every acknowledged record — is preserved.
//!
//! * **Bulk scopes** for single-threaded mass ingest: inside a
//!   [`BulkWalScope`] every append is written immediately but unsynced
//!   (preserving WAL-before-memory ordering), and a covering
//!   [`WalWriter::sync_now`] is issued every `sync_every` records and at
//!   [`BulkWalScope::finish`]. Records are only *acknowledged to the
//!   caller of `finish`* once the final sync lands.
//!
//! With `max_delay == 0` and a single appending thread, every group has
//! exactly one record, so the log byte stream and all observable
//! behavior match the ungrouped writer — tests stay deterministic.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
// The workspace's parking_lot shim has no Condvar, so the queue uses
// std::sync primitives directly (poison swallowed, matching the shim).
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use super::record::ChangeRecord;
use super::wal::{WalStats, WalWriter};

/// Tuning knobs for the leader/follower group-commit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Largest number of records a leader will flush as one group.
    pub max_batch: usize,
    /// How long a leader waits for followers to join before flushing.
    /// `Duration::ZERO` (the default) means "flush whatever is queued
    /// right now" — with one appender that degenerates to groups of
    /// one, keeping single-threaded runs deterministic.
    pub max_delay: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 128,
            max_delay: Duration::ZERO,
        }
    }
}

/// Queue state shared between appenders. Protected by one mutex; the
/// actual file write happens *outside* the lock so followers can keep
/// enqueueing while the leader is in `write_all`/`sync_data`.
struct Queue {
    pending: Vec<ChangeRecord>,
    /// Sequence number handed to the next enqueued record.
    next_seq: u64,
    /// All records with sequence `< acked_seq` are durable.
    acked_seq: u64,
    /// A leader is currently flushing outside the lock.
    flushing: bool,
}

/// A [`WalWriter`] front end that coalesces appends into group commits.
pub struct GroupCommitWal {
    wal: Arc<WalWriter>,
    config: GroupCommitConfig,
    queue: Mutex<Queue>,
    flushed: Condvar,
    /// Nesting depth of active bulk scopes (0 = leader/follower mode).
    bulk_depth: AtomicUsize,
    /// Records written-but-unsynced by the innermost bulk scope.
    bulk_pending: AtomicU64,
}

impl GroupCommitWal {
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wraps `wal`. With `config.max_batch <= 1` every append passes
    /// straight through to the underlying writer (the PR 5 behavior).
    pub fn new(wal: Arc<WalWriter>, config: GroupCommitConfig) -> Self {
        GroupCommitWal {
            wal,
            config,
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                next_seq: 0,
                acked_seq: 0,
                flushing: false,
            }),
            flushed: Condvar::new(),
            bulk_depth: AtomicUsize::new(0),
            bulk_pending: AtomicU64::new(0),
        }
    }

    /// The wrapped raw writer.
    pub fn raw(&self) -> &Arc<WalWriter> {
        &self.wal
    }

    /// Appends one record; returns only after the record is covered by
    /// a sync (under `SyncPolicy::Fsync`) or written (under
    /// `SyncPolicy::WriteBack`).
    pub fn append(&self, record: &ChangeRecord) -> io::Result<()> {
        if self.bulk_depth.load(Ordering::Acquire) > 0 {
            return self.append_bulk(record);
        }
        let config = self.config;
        if config.max_batch <= 1 {
            return self.wal.append(record);
        }

        let mut queue = self.lock_queue();
        let my_seq = queue.next_seq;
        queue.next_seq += 1;
        queue.pending.push(record.clone());

        loop {
            if queue.acked_seq > my_seq {
                return Ok(());
            }
            // A failed group poisons the writer; surface its error.
            self.wal.ensure_healthy()?;
            if !queue.flushing {
                // Become the leader for everything queued so far.
                queue.flushing = true;
                if !config.max_delay.is_zero() && queue.pending.len() < config.max_batch {
                    queue = self
                        .flushed
                        .wait_timeout(queue, config.max_delay)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                let take = queue.pending.len().min(config.max_batch);
                let batch: Vec<ChangeRecord> = queue.pending.drain(..take).collect();
                drop(queue);

                let result = self.wal.append_batch(&batch);

                queue = self.lock_queue();
                queue.flushing = false;
                if result.is_ok() {
                    queue.acked_seq += batch.len() as u64;
                }
                self.flushed.notify_all();
                match result {
                    Ok(()) => {
                        if queue.acked_seq > my_seq {
                            return Ok(());
                        }
                        // Our record was beyond max_batch; loop and
                        // either follow the next leader or lead again.
                    }
                    Err(e) => return Err(e),
                }
            } else {
                queue = self
                    .flushed
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Appends a whole batch as one buffered write and (outside a bulk
    /// scope) one covering sync — the `insert_batch` store path.
    pub fn append_batch(&self, records: &[ChangeRecord]) -> io::Result<()> {
        if records.is_empty() {
            return self.wal.ensure_healthy();
        }
        if self.bulk_depth.load(Ordering::Acquire) > 0 {
            self.wal.append_batch_unsynced(records)?;
            self.note_bulk_written(records.len() as u64)?;
            return Ok(());
        }
        self.wal.append_batch(records)
    }

    fn append_bulk(&self, record: &ChangeRecord) -> io::Result<()> {
        self.wal.append_unsynced(record)?;
        self.note_bulk_written(1)
    }

    /// Advances the bulk-window record count and issues the periodic
    /// covering sync whenever the count crosses a `max_batch` boundary.
    fn note_bulk_written(&self, count: u64) -> io::Result<()> {
        let after = self.bulk_pending.fetch_add(count, Ordering::AcqRel) + count;
        let sync_every = self.config.max_batch.max(1) as u64;
        if after / sync_every > (after - count) / sync_every
            && matches!(self.wal.sync_policy(), super::SyncPolicy::Fsync)
        {
            self.wal.sync_now()?;
        }
        Ok(())
    }

    /// Opens a bulk-ingest scope: every append inside the scope is
    /// written immediately but the covering sync is deferred to every
    /// `max_batch` records and to [`BulkWalScope::finish`]. Callers
    /// must not treat any record as acknowledged until `finish`
    /// returns `Ok`.
    pub fn begin_bulk(self: &Arc<Self>) -> BulkWalScope {
        self.bulk_depth.fetch_add(1, Ordering::AcqRel);
        BulkWalScope {
            sink: Arc::clone(self),
            finished: false,
        }
    }

    /// Rotates the underlying writer to a fresh segment. Callers must
    /// guarantee no append is concurrently in flight (the checkpoint
    /// path holds every store shard lock via `frozen_export`, and
    /// appenders hold their shard lock until acknowledged, so the
    /// queue is necessarily drained here).
    pub fn rotate(&self, new_path: &Path) -> io::Result<()> {
        let mut queue = self.lock_queue();
        while queue.flushing {
            queue = self
                .flushed
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        debug_assert!(
            queue.pending.is_empty(),
            "rotate with undrained group-commit queue"
        );
        self.wal.rotate(new_path)
    }

    /// See [`WalWriter::lsn`].
    pub fn lsn(&self) -> u64 {
        self.wal.lsn()
    }

    /// See [`WalWriter::sync`].
    pub fn sync(&self) -> io::Result<()> {
        self.wal.sync()
    }

    /// See [`WalWriter::ensure_healthy`].
    pub fn ensure_healthy(&self) -> io::Result<()> {
        self.wal.ensure_healthy()
    }

    /// See [`WalWriter::stats`].
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}

impl std::fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitWal")
            .field("config", &self.config)
            .field("bulk_depth", &self.bulk_depth.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII guard for a bulk-ingest window. Call [`BulkWalScope::finish`]
/// to issue the final covering sync and learn whether every record in
/// the window is durable; dropping without `finish` still closes the
/// window and attempts the sync best-effort, but the result is lost.
pub struct BulkWalScope {
    sink: Arc<GroupCommitWal>,
    finished: bool,
}

impl BulkWalScope {
    /// Closes the window: issues the covering sync (under
    /// `SyncPolicy::Fsync`) and returns its result. Only after an `Ok`
    /// here may the caller acknowledge the window's records.
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.close()
    }

    fn close(&mut self) -> io::Result<()> {
        self.sink.bulk_depth.fetch_sub(1, Ordering::AcqRel);
        self.sink.bulk_pending.store(0, Ordering::Release);
        if matches!(self.sink.wal.sync_policy(), super::SyncPolicy::Fsync) {
            self.sink.wal.sync_now()
        } else {
            Ok(())
        }
    }
}

impl Drop for BulkWalScope {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::wal::{read_segment, SyncPolicy};
    use super::*;

    fn record(n: u64) -> ChangeRecord {
        ChangeRecord::Remove { vid: n }
    }

    fn temp_wal(sync: SyncPolicy) -> (tempdir::TempDir, Arc<WalWriter>) {
        let dir = tempdir::TempDir::new();
        let path = dir.path().join("wal-1.idmwal");
        let wal = Arc::new(WalWriter::create(&path, 0, sync).expect("create wal"));
        (dir, wal)
    }

    // Minimal tempdir shim so this module has no dev-dependency.
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT: AtomicU64 = AtomicU64::new(0);

        pub struct TempDir(PathBuf);

        impl TempDir {
            pub fn new() -> TempDir {
                let path = std::env::temp_dir().join(format!(
                    "idm-gc-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path).expect("create temp dir");
                TempDir(path)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn single_threaded_groups_of_one_match_plain_appends() {
        let (dir, wal) = temp_wal(SyncPolicy::Fsync);
        let sink = GroupCommitWal::new(Arc::clone(&wal), GroupCommitConfig::default());
        for n in 0..10 {
            sink.append(&record(n)).expect("append");
        }
        let stats = sink.stats();
        assert_eq!(stats.frames, 10);
        assert_eq!(stats.groups, 10);
        assert_eq!(stats.syncs, 10);
        assert_eq!(stats.largest_group, 1);
        let segment = read_segment(&dir.path().join("wal-1.idmwal")).expect("read");
        assert_eq!(segment.records.len(), 10);
    }

    #[test]
    fn concurrent_appends_coalesce_and_all_land() {
        let (dir, wal) = temp_wal(SyncPolicy::Fsync);
        let sink = Arc::new(GroupCommitWal::new(
            Arc::clone(&wal),
            GroupCommitConfig {
                max_batch: 64,
                max_delay: Duration::from_millis(2),
            },
        ));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for n in 0..PER_THREAD {
                        sink.append(&record(t * PER_THREAD + n)).expect("append");
                    }
                });
            }
        });
        let stats = sink.stats();
        assert_eq!(stats.frames, THREADS * PER_THREAD);
        assert_eq!(stats.syncs, stats.groups);
        // Coalescing must have saved at least some syncs; the exact
        // grouping is timing-dependent.
        assert!(stats.groups <= stats.frames);
        let segment = read_segment(&dir.path().join("wal-1.idmwal")).expect("read");
        assert_eq!(segment.records.len(), (THREADS * PER_THREAD) as usize);
    }

    #[test]
    fn bulk_scope_defers_syncs_to_batch_boundaries() {
        let (dir, wal) = temp_wal(SyncPolicy::Fsync);
        let sink = Arc::new(GroupCommitWal::new(
            Arc::clone(&wal),
            GroupCommitConfig {
                max_batch: 32,
                max_delay: Duration::ZERO,
            },
        ));
        let scope = sink.begin_bulk();
        for n in 0..100 {
            sink.append(&record(n)).expect("append");
        }
        scope.finish().expect("finish");
        let stats = sink.stats();
        assert_eq!(stats.frames, 100);
        // 3 interior syncs (at 32/64/96) + 1 covering sync at finish.
        assert_eq!(stats.syncs, 4);
        let segment = read_segment(&dir.path().join("wal-1.idmwal")).expect("read");
        assert_eq!(segment.records.len(), 100);
    }

    #[test]
    fn passthrough_without_config_matches_raw_writer() {
        let (_dir, wal) = temp_wal(SyncPolicy::WriteBack);
        let ungrouped = GroupCommitConfig {
            max_batch: 1,
            ..GroupCommitConfig::default()
        };
        let sink = GroupCommitWal::new(Arc::clone(&wal), ungrouped);
        for n in 0..5 {
            sink.append(&record(n)).expect("append");
        }
        let stats = sink.stats();
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.syncs, 0);
        assert_eq!(stats.syncs_saved(), 0);
    }
}
