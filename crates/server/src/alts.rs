//! Lazily-built alternative engines (ViST, TwigStack, TwigStackXB)
//! for the cost-based router, cached per snapshot epoch.
//!
//! The alternative engines read the *same data* as PRIX: the
//! collection is reconstructed out of the RP index (Prüfer-sequence
//! inversion), region-/structure-encoded, and indexed into in-memory
//! buffer pools. One [`AltCache`] lives in the server's shared state.
//! It holds one slot per substrate: ViST, and the TwigStack substrate
//! that TwigStack and TwigStackXB share. Each slot is built on first
//! use at an epoch, and only the slot a request needs is built: a
//! forced `engine=twigstack` never builds ViST. The reconstructed
//! collection is dropped once the TwigStack substrate is built; only
//! ViST keeps one, because it verifies against it.
//!
//! Each build is single-flight. A slot's mutex is held for the whole
//! build, so concurrent requests at the same epoch wait for the one
//! build in flight and then share its result. Building outside the
//! lock would give every racing request its own full copy of the
//! substrate: at DBLP scale 1 that is seconds of CPU and hundreds of
//! MiB each. An ingest publishing a new epoch leaves the slot stale;
//! the next request at the new epoch drops the old engine and rebuilds.
//! A request still pinned to an older epoch than the slot's gets a
//! private build and leaves the newer one cached.
//!
//! Every build is counted per slot and shows on `/metrics` as
//! `prix_alt_rebuild_total{engine}` and
//! `prix_alt_rebuild_seconds_total{engine}`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prix_core::index::{IndexError, Result};
use prix_core::plan::{AltProvider, EngineId, QueryEngine};
use prix_core::EngineSnapshot;
use prix_storage::{BufferPool, Pager};
use prix_twigstack::{Substrate, TwigStackEngine};
use prix_vist::VistEngine;

/// Pages of buffer pool each alternative substrate gets.
const ALT_POOL_PAGES: usize = 4096;

/// One substrate's per-epoch cache entry plus its rebuild counters.
struct Slot<T> {
    engine: &'static str,
    built: Mutex<Option<(u64, T)>>,
    rebuilds: AtomicU64,
    rebuild_nanos: AtomicU64,
}

impl<T: Clone> Slot<T> {
    fn new(engine: &'static str) -> Self {
        Slot {
            engine,
            built: Mutex::new(None),
            rebuilds: AtomicU64::new(0),
            rebuild_nanos: AtomicU64::new(0),
        }
    }

    /// The entry for `epoch`, running `build` (under the slot's lock)
    /// when the cached one is for another epoch.
    fn get(&self, epoch: u64, build: impl FnOnce() -> Result<T>) -> Result<T> {
        let mut built = self.built.lock().unwrap_or_else(|e| e.into_inner());
        match built.as_ref() {
            Some((e, v)) if *e == epoch => return Ok(v.clone()),
            // Release the stale engine before building the next one, so
            // the two never both live on this slot's account.
            Some((e, _)) if *e < epoch => *built = None,
            _ => {}
        }
        let start = Instant::now();
        let v = build()?;
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.rebuild_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if built.is_none() {
            *built = Some((epoch, v.clone()));
        }
        Ok(v)
    }

    fn stats(&self) -> AltRebuilds {
        AltRebuilds {
            engine: self.engine,
            builds: self.rebuilds.load(Ordering::Relaxed),
            seconds: self.rebuild_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Lifetime rebuild counters of one alternative substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AltRebuilds {
    /// The `engine` label: `vist`, or `twigstack` for the substrate
    /// TwigStack and TwigStackXB share.
    pub engine: &'static str,
    /// Builds completed.
    pub builds: u64,
    /// Wall-clock seconds spent in those builds, collection
    /// reconstruction included.
    pub seconds: f64,
}

/// The TwigStack and TwigStackXB adapters over one shared substrate.
type TwigPair = (Arc<dyn QueryEngine>, Arc<dyn QueryEngine>);

/// Epoch-keyed cache of alternative engines. One per server.
pub struct AltCache {
    vist: Slot<Arc<dyn QueryEngine>>,
    twigstack: Slot<TwigPair>,
}

impl Default for AltCache {
    fn default() -> Self {
        AltCache {
            vist: Slot::new("vist"),
            twigstack: Slot::new("twigstack"),
        }
    }
}

impl AltCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild counters of every slot, ViST first.
    pub(crate) fn rebuilds(&self) -> [AltRebuilds; 2] {
        [self.vist.stats(), self.twigstack.stats()]
    }

    fn vist(&self, snap: &EngineSnapshot) -> Result<Arc<dyn QueryEngine>> {
        self.vist.get(snap.epoch(), || {
            let collection = Arc::new(snap.reconstruct_collection()?);
            let pool = Arc::new(BufferPool::new(Pager::in_memory(), ALT_POOL_PAGES));
            let vist = VistEngine::build(pool, collection).map_err(IndexError::Storage)?;
            Ok(Arc::new(vist) as Arc<dyn QueryEngine>)
        })
    }

    fn twigstack(&self, snap: &EngineSnapshot) -> Result<TwigPair> {
        self.twigstack.get(snap.epoch(), || {
            let collection = snap.reconstruct_collection()?;
            let pool = Arc::new(BufferPool::new(Pager::in_memory(), ALT_POOL_PAGES));
            let sub = Arc::new(Substrate::build(pool, &collection).map_err(IndexError::Storage)?);
            Ok((
                Arc::new(TwigStackEngine::twigstack(Arc::clone(&sub))) as Arc<dyn QueryEngine>,
                Arc::new(TwigStackEngine::twigstack_xb(sub)) as Arc<dyn QueryEngine>,
            ))
        })
    }
}

/// [`AltProvider`] view of the cache for one request's snapshot.
pub struct SnapshotAlts<'a> {
    /// The epoch-pinned snapshot the request executes against.
    pub snap: &'a EngineSnapshot,
    /// The server's shared cache.
    pub cache: &'a AltCache,
}

impl AltProvider for SnapshotAlts<'_> {
    fn alt_engine(&self, id: EngineId) -> Result<Arc<dyn QueryEngine>> {
        match id {
            EngineId::Vist => self.cache.vist(self.snap),
            EngineId::TwigStack => Ok(self.cache.twigstack(self.snap)?.0),
            EngineId::TwigStackXb => Ok(self.cache.twigstack(self.snap)?.1),
            EngineId::PrixRp | EngineId::PrixEp => Err(IndexError::Unsupported(
                "PRIX runs on its own indexes, not through the alt provider".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    use prix_core::{EngineConfig, PrixEngine, SharedEngine};
    use prix_xml::Collection;

    fn engine() -> SharedEngine {
        let mut c = Collection::new();
        for i in 0..20 {
            c.add_xml(&format!(
                "<dblp><www><editor>E{i}</editor><url>u{i}</url></www></dblp>"
            ))
            .unwrap();
        }
        SharedEngine::new(PrixEngine::build(c, EngineConfig::default()).unwrap())
    }

    /// `(vist, twigstack)` builds so far.
    fn builds(cache: &AltCache) -> (u64, u64) {
        let [vist, twigstack] = cache.rebuilds();
        (vist.builds, twigstack.builds)
    }

    fn force(snap: &EngineSnapshot, cache: &AltCache, id: EngineId) -> Arc<dyn QueryEngine> {
        SnapshotAlts { snap, cache }.alt_engine(id).unwrap()
    }

    #[test]
    fn concurrent_forced_twigstack_builds_one_substrate_and_no_vist() {
        let engine = engine();
        let cache = AltCache::new();
        let snap = engine.snapshot();
        let barrier = Barrier::new(8);
        let got: Vec<Arc<dyn QueryEngine>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        force(&snap, &cache, EngineId::TwigStack)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|e| Arc::ptr_eq(e, &got[0])));
        assert_eq!(builds(&cache), (0, 1));
        assert!(cache.rebuilds()[1].seconds > 0.0);

        // TwigStackXB runs on the same substrate.
        let xb = force(&snap, &cache, EngineId::TwigStackXb);
        assert_eq!(xb.id(), EngineId::TwigStackXb);
        assert_eq!(builds(&cache), (0, 1));

        // An epoch advance costs exactly one more build.
        let report = engine
            .ingest(&["<dblp><www><editor>N</editor><url>v</url></www></dblp>".to_string()])
            .unwrap();
        assert_eq!(report.accepted.len(), 1);
        let next = engine.snapshot();
        assert!(next.epoch() > snap.epoch());
        let fresh = force(&next, &cache, EngineId::TwigStack);
        assert!(!Arc::ptr_eq(&fresh, &got[0]));
        assert!(Arc::ptr_eq(
            &fresh,
            &force(&next, &cache, EngineId::TwigStack)
        ));
        assert_eq!(builds(&cache), (0, 2));

        // A reader still pinned at the old epoch gets a private build and
        // leaves the newer substrate cached.
        let old = force(&snap, &cache, EngineId::TwigStack);
        assert!(!Arc::ptr_eq(&old, &fresh));
        assert!(Arc::ptr_eq(
            &fresh,
            &force(&next, &cache, EngineId::TwigStack)
        ));
        assert_eq!(builds(&cache), (0, 3));
    }

    #[test]
    fn vist_builds_only_when_asked_for() {
        let engine = engine();
        let cache = AltCache::new();
        let snap = engine.snapshot();
        let vist = force(&snap, &cache, EngineId::Vist);
        assert_eq!(vist.id(), EngineId::Vist);
        assert!(Arc::ptr_eq(&vist, &force(&snap, &cache, EngineId::Vist)));
        assert_eq!(builds(&cache), (1, 0));
        force(&snap, &cache, EngineId::TwigStackXb);
        assert_eq!(builds(&cache), (1, 1));
        let names: Vec<&str> = cache.rebuilds().iter().map(|r| r.engine).collect();
        assert_eq!(names, ["vist", "twigstack"]);
    }
}
