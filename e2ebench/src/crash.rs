//! An unclean stop on real files.
//!
//! [`KillEnv`] wraps the database's [`FileSegEnv`] and hands out stores
//! that share one [`KillSwitch`]. Once armed, the "process dies" at the
//! first sync of any store other than the write-ahead log: that sync and
//! every later write, length change or sync fails. Commit makes the log
//! durable first, then syncs the pages, then advances the epoch and
//! truncates the log, so the stop leaves a committed WAL tail that
//! reopening must replay — the cut the crash harness's fault-injecting
//! stores model, here on the files the CLI opens. The operating
//! system's cache survives, as it does when a process is killed.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use prix_storage::{FileSegEnv, RawStore, SegmentEnv, StorageError};

const ARMED: u8 = 1;
const DEAD: u8 = 2;

/// 0 = running (the default), then [`ARMED`], then [`DEAD`].
#[derive(Clone, Default)]
pub struct KillSwitch(Arc<AtomicU8>, Arc<IoCount>);

/// Syncs and bytes written at the store boundary, counted for the
/// traced run (the WAL apart from everything else).
#[derive(Default)]
pub struct IoCount {
    pub wal_syncs: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub other_syncs: AtomicU64,
}

impl KillSwitch {
    /// The next non-WAL sync is where this "process" dies.
    pub fn arm(&self) {
        self.0.store(ARMED, Ordering::SeqCst);
    }

    /// `(WAL syncs, WAL bytes written, other syncs)` so far.
    pub fn io(&self) -> (u64, u64, u64) {
        (
            self.1.wal_syncs.load(Ordering::Relaxed),
            self.1.wal_bytes.load(Ordering::Relaxed),
            self.1.other_syncs.load(Ordering::Relaxed),
        )
    }

    pub fn is_dead(&self) -> bool {
        self.0.load(Ordering::SeqCst) == DEAD
    }

    fn check(&self) -> prix_storage::Result<()> {
        if self.is_dead() {
            Err(StorageError::Io(std::io::Error::other(
                "benchmark-injected unclean stop",
            )))
        } else {
            Ok(())
        }
    }
}

struct KillStore {
    inner: Box<dyn RawStore>,
    switch: KillSwitch,
    suffix: String,
}

impl RawStore for KillStore {
    fn len(&self) -> prix_storage::Result<u64> {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> prix_storage::Result<()> {
        self.switch.check()?;
        self.inner.set_len(len)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> prix_storage::Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> prix_storage::Result<()> {
        self.switch.check()?;
        if self.suffix.ends_with(".wal") {
            self.switch
                .1
                .wal_bytes
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        self.inner.write_at(offset, buf)
    }

    fn sync(&self) -> prix_storage::Result<()> {
        if !self.suffix.ends_with(".wal")
            && self
                .switch
                .0
                .compare_exchange(ARMED, DEAD, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            eprintln!("unclean stop at the sync of db{}", self.suffix);
        }
        self.switch.check()?;
        let n = if self.suffix.ends_with(".wal") {
            &self.switch.1.wal_syncs
        } else {
            &self.switch.1.other_syncs
        };
        n.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

pub struct KillEnv {
    inner: FileSegEnv,
    switch: KillSwitch,
}

impl KillEnv {
    pub fn new(db: &std::path::Path, switch: KillSwitch) -> KillEnv {
        KillEnv {
            inner: FileSegEnv::new(db),
            switch,
        }
    }

    fn wrap(&self, suffix: &str, inner: Box<dyn RawStore>) -> Box<dyn RawStore> {
        Box::new(KillStore {
            inner,
            switch: self.switch.clone(),
            suffix: suffix.to_string(),
        })
    }
}

impl SegmentEnv for KillEnv {
    fn create(&self, suffix: &str) -> prix_storage::Result<Box<dyn RawStore>> {
        self.switch.check()?;
        Ok(self.wrap(suffix, self.inner.create(suffix)?))
    }

    fn open(&self, suffix: &str) -> prix_storage::Result<Box<dyn RawStore>> {
        Ok(self.wrap(suffix, self.inner.open(suffix)?))
    }

    fn exists(&self, suffix: &str) -> prix_storage::Result<bool> {
        self.inner.exists(suffix)
    }

    fn remove(&self, suffix: &str) -> prix_storage::Result<()> {
        self.switch.check()?;
        self.inner.remove(suffix)
    }

    fn temp(&self) -> prix_storage::Result<Box<dyn RawStore>> {
        self.switch.check()?;
        Ok(self.wrap("", self.inner.temp()?))
    }
}
