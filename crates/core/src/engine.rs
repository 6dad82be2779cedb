//! The PRIX engine: both indexes, their segment tiers, and the write
//! path (build, ingest, save, compaction).
//!
//! "In the PRIX system, both RPIndex and EPIndex can coexist. A query
//! optimizer can choose either of the indexes based on the presence or
//! absence of values in twig queries." Every read goes through an
//! [`EngineSnapshot`] ([`PrixEngine::snapshot`]), which implements that
//! routing, the §5.7 branch-arrangement loop, and the cost-based
//! router.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use prix_storage::{
    recover, BufferPool, FileSegEnv, FileStore, IoSnapshot, IoStats, Manifest, ManifestSegment,
    MemSegEnv, Pager, RawStore, RecordId, RecordStore, RecoveryReport, SegmentCheck, SegmentEnv,
    SegmentReader, Wal, PAGE_SIZE, SEG_KIND_EP, SEG_KIND_RP,
};
use prix_xml::{Collection, Sym, SymbolTable};

use crate::index::{IndexError, IndexKind, PrixIndex, QueryStats, Result, TwigMatch};
use crate::plan::{EngineId, Planner, PlannerStats};
use crate::query::TwigQuery;
use crate::snapshot::EngineSnapshot;
use crate::trie::LabelingMode;
use crate::valix::{Valix, ValixEntry};
use crate::xpath::{parse_xpath, XPathError};

/// Version of the catalog-page layout written by [`PrixEngine::save`].
/// [`PrixEngine::reopen`] refuses newer versions rather than misreading
/// an unknown layout, but still accepts [`MIN_CATALOG_VERSION`].
///
/// History: v1 ended after the dummy symbol; v2 appended the
/// arrangement limit; v3 appended the length-prefixed planner
/// statistics blob; v4 appended the valix metadata record id after the
/// blob (0 = no value index).
const CATALOG_VERSION: u32 = 4;

/// Oldest catalog version [`PrixEngine::reopen`] still reads. A v2
/// database opens with empty planner statistics (the planner relearns
/// from traffic); a v3 database opens without a value index (predicate
/// queries fall back to verification-only). Both are rewritten as v4 on
/// the next save.
const MIN_CATALOG_VERSION: u32 = 2;

/// Byte offset of the planner-stats blob (u32 length + payload) in the
/// catalog page, right after the v2 fields.
const CATALOG_STATS_OFF: usize = 44;

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Buffer-pool capacity in pages (paper default: 2000, §6.1).
    pub buffer_pages: usize,
    /// Virtual-trie labeling mode.
    pub labeling: LabelingMode,
    /// Backing file; `None` = in-memory pager.
    pub path: Option<PathBuf>,
    /// Build the Regular-Prüfer index.
    pub build_rp: bool,
    /// Build the Extended-Prüfer index.
    pub build_ep: bool,
    /// Cap on unordered branch arrangements.
    pub arrangement_limit: usize,
    /// Write-ahead logging for file-backed engines: pages evicted
    /// before a [`PrixEngine::save`] spill to the log instead of the
    /// database file, and every save is a group commit (WAL fsync
    /// before any page write), so a crash at any instant leaves either
    /// the previous save or the new one — never a torn mixture.
    /// Ignored for in-memory engines. Default `true`; disable to
    /// measure the logging overhead (`--no-wal`).
    pub wal: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_pages: 2000,
            labeling: LabelingMode::Exact,
            path: None,
            build_rp: true,
            build_ep: true,
            arrangement_limit: 720,
            wal: true,
        }
    }
}

/// The raw byte stores a durable engine lives on: the page file, its
/// checksum sidecar, and the write-ahead log. Normally these are the
/// files `<db>`, `<db>.sum`, and `<db>.wal`, but any [`RawStore`]
/// works — the crash-recovery harness passes fault-injecting in-memory
/// stores through [`PrixEngine::build_on`] / [`PrixEngine::reopen_on`].
pub struct EngineStores {
    /// The page file.
    pub db: Box<dyn RawStore>,
    /// Per-page CRC sidecar (`<db>.sum`). `None` = legacy non-durable
    /// layout.
    pub sum: Option<Box<dyn RawStore>>,
    /// Write-ahead log (`<db>.wal`). Must be `Some` iff `sum` is.
    pub wal: Option<Box<dyn RawStore>>,
}

/// `<db>` → `<db>.sum` / `<db>.wal`: sidecar paths are formed by
/// appending to the full file name, so they sit next to the database
/// whatever its extension.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// One immutable segment tier: the RP/EP segment pair covering global
/// document ids `[doc_base, doc_base + n_docs)`. Queries descend every
/// tier and the mutable delta; tiers never change after publication, so
/// snapshots clone them for free (the indexes inside are segment-backed
/// and internally shared).
#[derive(Clone)]
pub(crate) struct SegTier {
    pub(crate) rp: Option<PrixIndex>,
    pub(crate) ep: Option<PrixIndex>,
    pub(crate) doc_base: u32,
    pub(crate) n_docs: u32,
}

/// Everything a query execution reports.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The twig occurrences (deduplicated embeddings).
    pub matches: Vec<TwigMatch>,
    /// Filter/refinement counters.
    pub stats: QueryStats,
    /// Which index answered the query.
    pub index_used: IndexKind,
    /// I/O performed *by this query* (pages read = the paper's
    /// "Disk IO" column when the pool started cold). Attributed via a
    /// per-thread [`IoScope`], so it stays exact even when other
    /// queries run concurrently on the same buffer pool.
    pub io: IoSnapshot,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// `true` when execution stopped at [`ExecOpts::limit`] without
    /// proving the result set was drained; more matches *may* exist
    /// (conservative — no probing for the next match is done).
    pub truncated: bool,
    /// Which engine produced this outcome. PRIX paths derive it from
    /// `index_used`; routed alternative engines set their own id.
    pub engine: EngineId,
}

/// An indexed XML database: the collection, its RP/EP indexes, and a
/// shared buffer pool.
pub struct PrixEngine {
    collection: Collection,
    pool: Arc<BufferPool>,
    rp: Option<PrixIndex>,
    ep: Option<PrixIndex>,
    dummy: Sym,
    arrangement_limit: usize,
    /// Record store holding engine-level catalog records (the symbol
    /// table); kept open across saves so repeated saves append into the
    /// same data page instead of allocating a fresh one each time.
    catalog_store: Option<RecordStore>,
    /// Last symbol-table record written, with its exact serialized
    /// bytes: an unchanged table is not re-appended on the next save.
    saved_syms: Option<(RecordId, Vec<u8>)>,
    /// What crash recovery did when this engine was reopened; `None`
    /// for freshly built engines and clean reopens of legacy files.
    recovery: Option<RecoveryReport>,
    /// Immutable segment tiers in ascending `doc_base` order (empty for
    /// a never-segmented engine).
    segments: Vec<SegTier>,
    /// The manifest rows behind `segments`, kept verbatim for
    /// compaction (which appends to them) and `prix segments`.
    manifest_segments: Vec<ManifestSegment>,
    /// Where segment/manifest/mutable-generation files live. File
    /// engines resolve suffixes against the database path; in-memory
    /// and harness engines use an in-memory map.
    seg_env: Arc<dyn SegmentEnv>,
    /// Segment-block I/O counters. One instance for the engine's whole
    /// life: compaction swaps buffer pools (and their page counters)
    /// but `/metrics` totals must not reset.
    seg_stats: Arc<IoStats>,
    /// Manifest generation; 0 = no manifest has ever been written.
    generation: u64,
    /// File-name suffix of the live mutable generation (`""` = the
    /// base database file; compaction moves to `".g{N}"`).
    mutable_suffix: String,
    /// Pool capacity in pages; compaction builds the replacement
    /// mutable generation with the same capacity.
    buffer_pages: usize,
    /// Labeling mode for fresh mutable generations.
    labeling: LabelingMode,
    /// The cost-based planner's statistics, shared (via `Arc`) with
    /// every snapshot so observations from served queries feed back
    /// into later plans. Persisted in the catalog (v3).
    planner: Arc<Planner>,
    /// The value-predicate secondary index over leaf values
    /// ([`crate::valix`]), living in the same buffer pool as the
    /// structural indexes. `None` on pre-v4 databases.
    valix: Option<Valix>,
}

impl PrixEngine {
    /// Builds the engine over `collection`. File-backed engines with
    /// [`EngineConfig::wal`] (the default) get the durable layout:
    /// `<path>.sum` checksum sidecar and `<path>.wal` write-ahead log
    /// next to the database file.
    pub fn build(collection: Collection, cfg: EngineConfig) -> Result<Self> {
        let pool = match &cfg.path {
            Some(p) if cfg.wal => {
                let db = Box::new(FileStore::create(p).map_err(IndexError::Storage)?);
                let sum =
                    Box::new(FileStore::create(sibling(p, ".sum")).map_err(IndexError::Storage)?);
                let wal =
                    Box::new(FileStore::create(sibling(p, ".wal")).map_err(IndexError::Storage)?);
                Self::durable_pool_create(db, sum, wal, cfg.buffer_pages)?
            }
            Some(p) => BufferPool::new(
                Pager::create(p).map_err(IndexError::Storage)?,
                cfg.buffer_pages,
            ),
            None => BufferPool::new(Pager::in_memory(), cfg.buffer_pages),
        };
        Self::build_over(collection, cfg, pool)
    }

    /// [`PrixEngine::build`] over caller-supplied stores instead of
    /// files (ignores [`EngineConfig::path`]). With `sum` + `wal`
    /// stores the engine is durable exactly as if file-backed.
    pub fn build_on(
        collection: Collection,
        cfg: EngineConfig,
        stores: EngineStores,
    ) -> Result<Self> {
        let pool = match (stores.sum, stores.wal) {
            (Some(sum), Some(wal)) => {
                Self::durable_pool_create(stores.db, sum, wal, cfg.buffer_pages)?
            }
            (None, None) => BufferPool::new(
                Pager::create_on(stores.db).map_err(IndexError::Storage)?,
                cfg.buffer_pages,
            ),
            _ => {
                return Err(IndexError::Unsupported(
                    "EngineStores needs both sum and wal stores, or neither".into(),
                ))
            }
        };
        Self::build_over(collection, cfg, pool)
    }

    fn durable_pool_create(
        db: Box<dyn RawStore>,
        sum: Box<dyn RawStore>,
        wal: Box<dyn RawStore>,
        buffer_pages: usize,
    ) -> Result<BufferPool> {
        let pager = Pager::create_durable(db, sum).map_err(IndexError::Storage)?;
        let wal = Wal::create(wal, pager.epoch(), pager.stats()).map_err(IndexError::Storage)?;
        Ok(BufferPool::with_wal(pager, buffer_pages, wal))
    }

    fn build_over(mut collection: Collection, cfg: EngineConfig, pool: BufferPool) -> Result<Self> {
        let pool = Arc::new(pool);
        let seg_env: Arc<dyn SegmentEnv> = match &cfg.path {
            Some(p) => Arc::new(FileSegEnv::new(p.clone())),
            None => Arc::new(MemSegEnv::new()),
        };
        let dummy = collection.intern("\u{1}prix-dummy");
        // Both indexes read the same immutable collection and write
        // through the internally synchronized buffer pool, so they can
        // be built concurrently.
        let (rp, ep) = if cfg.build_rp && cfg.build_ep {
            let (rp_res, ep_res) = std::thread::scope(|s| {
                let rp_pool = Arc::clone(&pool);
                let ep_pool = Arc::clone(&pool);
                let coll = &collection;
                let rp = s.spawn(move || {
                    PrixIndex::build(rp_pool, coll, IndexKind::Regular, cfg.labeling, dummy)
                });
                let ep = s.spawn(move || {
                    PrixIndex::build(ep_pool, coll, IndexKind::Extended, cfg.labeling, dummy)
                });
                (
                    rp.join().expect("rp build thread"),
                    ep.join().expect("ep build thread"),
                )
            });
            (Some(rp_res?), Some(ep_res?))
        } else if cfg.build_rp {
            (
                Some(PrixIndex::build(
                    Arc::clone(&pool),
                    &collection,
                    IndexKind::Regular,
                    cfg.labeling,
                    dummy,
                )?),
                None,
            )
        } else if cfg.build_ep {
            (
                None,
                Some(PrixIndex::build(
                    Arc::clone(&pool),
                    &collection,
                    IndexKind::Extended,
                    cfg.labeling,
                    dummy,
                )?),
            )
        } else {
            (None, None)
        };
        // Seed the planner from what the build just saw: label counts
        // from the collection, trie fanout from the RP build.
        let mut pstats = PlannerStats::default();
        pstats.merge_collection(&collection);
        if let Some(idx) = rp.as_ref().or(ep.as_ref()) {
            let b = idx.build_stats();
            pstats.set_trie_shape(b.trie_nodes as u64, b.trie_paths as u64, b.sequences);
        }
        // The value-predicate index rides along whenever a structural
        // index exists (it shares their document numbering).
        let valix = if rp.is_some() || ep.is_some() {
            let mut vx = Valix::create(Arc::clone(&pool))?;
            for (doc, tree) in collection.iter() {
                vx.index_tree(tree, doc, collection.symbols())?;
            }
            Some(vx)
        } else {
            None
        };
        Ok(PrixEngine {
            collection,
            pool,
            rp,
            ep,
            dummy,
            arrangement_limit: cfg.arrangement_limit,
            catalog_store: None,
            saved_syms: None,
            recovery: None,
            segments: Vec::new(),
            manifest_segments: Vec::new(),
            seg_env,
            seg_stats: Arc::new(IoStats::new()),
            generation: 0,
            mutable_suffix: String::new(),
            buffer_pages: cfg.buffer_pages,
            labeling: cfg.labeling,
            planner: Arc::new(Planner::new(pstats)),
            valix,
        })
    }

    /// The indexed collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The shared buffer pool (for cold-cache benchmarking).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The dummy label used for extended sequences.
    pub fn dummy(&self) -> Sym {
        self.dummy
    }

    /// The cap on unordered branch arrangements (§5.7). Persisted by
    /// [`PrixEngine::save`] and restored by [`PrixEngine::reopen`].
    pub fn arrangement_limit(&self) -> usize {
        self.arrangement_limit
    }

    /// The RPIndex, if built.
    pub fn rp_index(&self) -> Option<&PrixIndex> {
        self.rp.as_ref()
    }

    /// The EPIndex, if built.
    pub fn ep_index(&self) -> Option<&PrixIndex> {
        self.ep.as_ref()
    }

    /// Parses an XPath string against this engine's symbol table.
    pub fn parse_query(&mut self, xpath: &str) -> std::result::Result<TwigQuery, XPathError> {
        parse_xpath(xpath, self.collection.symbols_mut())
    }

    /// Flushes and empties the buffer pool so the next query measures
    /// cold-cache I/O, like the paper's direct-I/O setup.
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.clear().map_err(IndexError::Storage)
    }

    /// Persists the engine so [`PrixEngine::reopen`] can load it from
    /// the backing file: index metadata and the symbol table go into
    /// the shared store, their locations into the reserved catalog page
    /// (page 0), and the buffer pool is flushed.
    ///
    /// Only works for file-backed engines (`EngineConfig::path`);
    /// in-memory engines have nowhere to persist to.
    pub fn save(&mut self) -> Result<()> {
        let rp_meta = match &mut self.rp {
            Some(i) => i.save()?.raw(),
            None => 0,
        };
        let ep_meta = match &mut self.ep {
            Some(i) => i.save()?.raw(),
            None => 0,
        };
        // Serialize the symbol table (needed to parse queries after
        // reopen).
        let mut buf: Vec<u8> = Vec::new();
        let syms = self.collection.symbols();
        buf.extend_from_slice(&(syms.len() as u32).to_le_bytes());
        for (_, name) in syms.iter() {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        // Reuse the previously written record when the table is
        // unchanged — saving an unchanged engine N times must not grow
        // the store by N symbol-table copies.
        let syms_rec = match &self.saved_syms {
            Some((id, bytes)) if *bytes == buf => *id,
            _ => {
                if self.catalog_store.is_none() {
                    self.catalog_store = Some(
                        RecordStore::open(Arc::clone(&self.pool)).map_err(IndexError::Storage)?,
                    );
                }
                let store = self.catalog_store.as_mut().expect("created above");
                let id = store.append(&buf).map_err(IndexError::Storage)?;
                self.saved_syms = Some((id, buf));
                id
            }
        };
        let valix_meta = match &mut self.valix {
            Some(v) => v.save()?.raw(),
            None => 0,
        };
        // Catalog page. The planner-stats blob is capped by its encoder
        // to fit the remainder of the page (minus the trailing valix
        // record id); an oversized blob would be a bug in that cap, so
        // refuse rather than corrupt the page.
        let stats_blob = self.planner.encode();
        if CATALOG_STATS_OFF + 4 + stats_blob.len() + 8 > PAGE_SIZE {
            return Err(IndexError::Unsupported(
                "planner statistics overflow the catalog page".into(),
            ));
        }
        self.pool
            .with_page_mut(0, |p: &mut [u8; PAGE_SIZE]| {
                p[..4].copy_from_slice(b"PRIX");
                p[4..8].copy_from_slice(&CATALOG_VERSION.to_le_bytes());
                p[8..16].copy_from_slice(&rp_meta.to_le_bytes());
                p[16..24].copy_from_slice(&ep_meta.to_le_bytes());
                p[24..32].copy_from_slice(&syms_rec.raw().to_le_bytes());
                p[32..36].copy_from_slice(&self.dummy.0.to_le_bytes());
                p[36..44].copy_from_slice(&(self.arrangement_limit as u64).to_le_bytes());
                let off = CATALOG_STATS_OFF;
                p[off..off + 4].copy_from_slice(&(stats_blob.len() as u32).to_le_bytes());
                p[off + 4..off + 4 + stats_blob.len()].copy_from_slice(&stats_blob);
                // v4: the valix metadata record id trails the blob.
                let voff = off + 4 + stats_blob.len();
                p[voff..voff + 8].copy_from_slice(&valix_meta.to_le_bytes());
            })
            .map_err(IndexError::Storage)?;
        self.pool.flush().map_err(IndexError::Storage)
    }

    /// Reopens a previously [`PrixEngine::save`]d database.
    ///
    /// The document trees themselves are not persisted — only what
    /// query processing needs (sequences, leaf lists, indexes, symbol
    /// table) — so [`PrixEngine::collection`] of a reopened engine is
    /// empty. Queries, embeddings, and statistics work as before.
    pub fn reopen<P: AsRef<Path>>(path: P, buffer_pages: usize) -> Result<Self> {
        Self::reopen_opts(path, buffer_pages, true)
    }

    /// [`PrixEngine::reopen`] with explicit control over write-ahead
    /// logging. A database with a `<path>.sum` sidecar is opened in
    /// durable mode: page checksums are verified on cold reads and any
    /// crashed commit left in `<path>.wal` is replayed first (see
    /// [`PrixEngine::recovery`]). With `wal = false` the log is still
    /// recovered and truncated, but subsequent saves write pages
    /// directly — checksums stay maintained, crash atomicity is off.
    /// A legacy database (no sidecar) opens exactly as before.
    pub fn reopen_opts<P: AsRef<Path>>(path: P, buffer_pages: usize, wal: bool) -> Result<Self> {
        let env: Arc<dyn SegmentEnv> = Arc::new(FileSegEnv::new(path.as_ref().to_path_buf()));
        Self::reopen_env(env, buffer_pages, wal)
    }

    /// [`PrixEngine::reopen_opts`] over a segment environment. The
    /// manifest (suffix `".seg"`) is consulted *first*: it names the
    /// live mutable generation and every immutable segment. Without a
    /// manifest the base store opens exactly as a legacy single-file
    /// database. The crash harness hands fault-injecting environments
    /// in here.
    pub fn reopen_env(env: Arc<dyn SegmentEnv>, buffer_pages: usize, wal: bool) -> Result<Self> {
        let manifest = if env.exists(".seg")? {
            Manifest::read_from(&*env.open(".seg")?)?
        } else {
            None
        };
        let msuffix = manifest
            .as_ref()
            .map_or_else(String::new, |m| m.mutable_suffix.clone());
        let sum_suffix = format!("{msuffix}.sum");
        let mut eng = if !env.exists(&sum_suffix)? {
            let pager = Pager::open_on(env.open(&msuffix)?).map_err(IndexError::Storage)?;
            Self::reopen_over(BufferPool::new(pager, buffer_pages), None)?
        } else {
            let db = env.open(&msuffix)?;
            let sum = env.open(&sum_suffix)?;
            let wal_suffix = format!("{msuffix}.wal");
            let wal_store: Box<dyn RawStore> = if env.exists(&wal_suffix)? {
                env.open(&wal_suffix)?
            } else {
                // Sidecar present but the log is missing (deleted by
                // hand): nothing to replay; recreate it empty.
                env.create(&wal_suffix)?
            };
            Self::reopen_durable(db, sum, wal_store, buffer_pages, wal)?
        };
        eng.seg_env = env;
        if let Some(m) = &manifest {
            eng.attach_manifest(m)?;
        }
        Ok(eng)
    }

    /// [`PrixEngine::reopen`] over caller-supplied stores (the crash
    /// harness hands in the post-crash disk images). Durable iff `sum`
    /// and `wal` stores are present.
    pub fn reopen_on(stores: EngineStores, buffer_pages: usize) -> Result<Self> {
        match (stores.sum, stores.wal) {
            (Some(sum), Some(wal)) => Self::reopen_durable(stores.db, sum, wal, buffer_pages, true),
            (None, None) => {
                let pager = Pager::open_on(stores.db).map_err(IndexError::Storage)?;
                Self::reopen_over(BufferPool::new(pager, buffer_pages), None)
            }
            _ => Err(IndexError::Unsupported(
                "EngineStores needs both sum and wal stores, or neither".into(),
            )),
        }
    }

    fn reopen_durable(
        db: Box<dyn RawStore>,
        sum: Box<dyn RawStore>,
        wal_store: Box<dyn RawStore>,
        buffer_pages: usize,
        keep_wal: bool,
    ) -> Result<Self> {
        let pager = Pager::open_durable(db, sum).map_err(IndexError::Storage)?;
        let stats = pager.stats();
        let (wal, report) = recover(&pager, wal_store, stats).map_err(IndexError::Storage)?;
        let pool = if keep_wal {
            BufferPool::with_wal(pager, buffer_pages, wal)
        } else {
            drop(wal); // log is already truncated; run without it
            BufferPool::new(pager, buffer_pages)
        };
        Self::reopen_over(pool, Some(report))
    }

    fn reopen_over(pool: BufferPool, recovery: Option<RecoveryReport>) -> Result<Self> {
        let pool = Arc::new(pool);
        let buffer_pages = pool.capacity();
        let (rp_meta, ep_meta, syms_rec, dummy, arrangement_limit, pstats, valix_meta) = pool
            .with_page(0, |p: &[u8; PAGE_SIZE]| {
                if &p[..4] != b"PRIX" {
                    return Err(IndexError::Unsupported(
                        "file is not a PRIX database (bad magic)".into(),
                    ));
                }
                let version = u32::from_le_bytes(p[4..8].try_into().unwrap());
                if !(MIN_CATALOG_VERSION..=CATALOG_VERSION).contains(&version) {
                    return Err(IndexError::Unsupported(format!(
                        "unsupported PRIX database version {version} (this build reads \
                         versions {MIN_CATALOG_VERSION}..={CATALOG_VERSION}); refusing to \
                         guess at its layout"
                    )));
                }
                // v2 has no stats blob: the planner starts empty and
                // relearns from traffic.
                let mut blob_end = CATALOG_STATS_OFF;
                let pstats = if version >= 3 {
                    let off = CATALOG_STATS_OFF;
                    let len = u32::from_le_bytes(p[off..off + 4].try_into().unwrap()) as usize;
                    if off + 4 + len > PAGE_SIZE {
                        return Err(IndexError::Unsupported(
                            "corrupt planner statistics in catalog".into(),
                        ));
                    }
                    blob_end = off + 4 + len;
                    PlannerStats::decode(&p[off + 4..off + 4 + len]).ok_or_else(|| {
                        IndexError::Unsupported("corrupt planner statistics in catalog".into())
                    })?
                } else {
                    PlannerStats::default()
                };
                // v3 has no valix: predicate queries run
                // verification-only until the next save rewrites v4.
                let valix_meta = if version >= 4 && blob_end + 8 <= PAGE_SIZE {
                    u64::from_le_bytes(p[blob_end..blob_end + 8].try_into().unwrap())
                } else {
                    0
                };
                Ok((
                    u64::from_le_bytes(p[8..16].try_into().unwrap()),
                    u64::from_le_bytes(p[16..24].try_into().unwrap()),
                    u64::from_le_bytes(p[24..32].try_into().unwrap()),
                    Sym(u32::from_le_bytes(p[32..36].try_into().unwrap())),
                    u64::from_le_bytes(p[36..44].try_into().unwrap()) as usize,
                    pstats,
                    valix_meta,
                ))
            })
            .map_err(IndexError::Storage)??;
        let store = RecordStore::open(Arc::clone(&pool)).map_err(IndexError::Storage)?;
        let bytes = store
            .read(RecordId::from_raw(syms_rec))
            .map_err(IndexError::Storage)?;
        let mut syms = SymbolTable::new();
        let mut off = 4usize;
        let count = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        for _ in 0..count {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            let name = std::str::from_utf8(&bytes[off..off + len])
                .map_err(|_| IndexError::Unsupported("corrupt symbol table".into()))?;
            syms.intern(name);
            off += len;
        }
        let collection = Collection::with_symbols(Arc::new(syms));
        let rp = (rp_meta != 0)
            .then(|| PrixIndex::load(Arc::clone(&pool), RecordId::from_raw(rp_meta)))
            .transpose()?;
        let ep = (ep_meta != 0)
            .then(|| PrixIndex::load(Arc::clone(&pool), RecordId::from_raw(ep_meta)))
            .transpose()?;
        let valix = (valix_meta != 0)
            .then(|| Valix::load(Arc::clone(&pool), RecordId::from_raw(valix_meta)))
            .transpose()?;
        Ok(PrixEngine {
            collection,
            pool,
            rp,
            ep,
            dummy,
            arrangement_limit,
            catalog_store: None,
            saved_syms: Some((RecordId::from_raw(syms_rec), bytes)),
            recovery,
            segments: Vec::new(),
            manifest_segments: Vec::new(),
            // Placeholder; [`PrixEngine::reopen_env`] installs the real
            // environment right after this returns.
            seg_env: Arc::new(MemSegEnv::new()),
            seg_stats: Arc::new(IoStats::new()),
            generation: 0,
            mutable_suffix: String::new(),
            buffer_pages,
            labeling: LabelingMode::Exact,
            planner: Arc::new(Planner::new(pstats)),
            valix,
        })
    }

    /// What crash recovery did when this engine was reopened: `None`
    /// for freshly built engines and legacy files, `Some` (possibly a
    /// clean no-op report) whenever a durable database was reopened.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Verifies every page of the backing store against its recorded
    /// checksum, returning `(verified, skipped)` counts. Durable
    /// databases only; a legacy file reports `Unsupported`.
    pub fn verify_checksums(&self) -> Result<(u64, u64)> {
        if !self.pool.pager().has_checksums() {
            return Err(IndexError::Unsupported(
                "database has no checksum sidecar (built without WAL support)".into(),
            ));
        }
        self.pool
            .pager()
            .verify_checksums()
            .map_err(IndexError::Storage)
    }

    /// Opens every segment the manifest lists and installs them as this
    /// engine's immutable tiers, re-basing the mutable indexes to start
    /// where the segments end. A manifest that names a missing file, a
    /// header that disagrees with its manifest row, or a
    /// non-contiguous tier layout is a hard error — serving a database
    /// with silently absent documents would be worse than refusing.
    fn attach_manifest(&mut self, m: &Manifest) -> Result<()> {
        let mut tiers: std::collections::BTreeMap<u32, SegTier> = std::collections::BTreeMap::new();
        for s in &m.segments {
            if !self.seg_env.exists(&s.suffix)? {
                return Err(IndexError::Unsupported(format!(
                    "manifest generation {} references missing segment file '{}'",
                    m.generation, s.suffix
                )));
            }
            let reader = Arc::new(
                SegmentReader::open(self.seg_env.open(&s.suffix)?, Arc::clone(&self.seg_stats))
                    .map_err(IndexError::Storage)?,
            );
            if reader.kind() != s.kind
                || reader.doc_base() != s.doc_base
                || reader.n_docs() != s.n_docs
            {
                return Err(IndexError::Unsupported(format!(
                    "segment '{}' header disagrees with its manifest row",
                    s.suffix
                )));
            }
            let idx = PrixIndex::from_segment(reader)?;
            let tier = tiers.entry(s.doc_base).or_insert_with(|| SegTier {
                rp: None,
                ep: None,
                doc_base: s.doc_base,
                n_docs: s.n_docs,
            });
            let slot = if s.kind == SEG_KIND_RP {
                &mut tier.rp
            } else {
                &mut tier.ep
            };
            if tier.n_docs != s.n_docs || slot.is_some() {
                return Err(IndexError::Unsupported(format!(
                    "manifest generation {} lists conflicting segments at doc base {}",
                    m.generation, s.doc_base
                )));
            }
            *slot = Some(idx);
        }
        let tiers: Vec<SegTier> = tiers.into_values().collect();
        let mut next = 0u32;
        for t in &tiers {
            if t.doc_base != next {
                return Err(IndexError::Unsupported(
                    "segment tiers are not contiguous".into(),
                ));
            }
            next += t.n_docs;
        }
        self.segments = tiers;
        self.manifest_segments = m.segments.clone();
        self.generation = m.generation;
        self.mutable_suffix = m.mutable_suffix.clone();
        if let Some(rp) = &mut self.rp {
            rp.set_doc_base(next);
        }
        if let Some(ep) = &mut self.ep {
            ep.set_doc_base(next);
        }
        Ok(())
    }

    /// Writes `m` into the manifest store (suffix `".seg"`), creating
    /// it on first use. The write itself is atomic at the slot level
    /// (two alternating CRC-framed slots; a torn write leaves the
    /// previous generation valid), so this call is the commit point of
    /// every bulk build and compaction.
    fn write_manifest(&self, m: &Manifest) -> Result<()> {
        let store = if self.seg_env.exists(".seg")? {
            self.seg_env.open(".seg")?
        } else {
            self.seg_env.create(".seg")?
        };
        m.write_to(&*store).map_err(IndexError::Storage)?;
        Ok(())
    }

    /// Builds a mutable-generation engine whose stores live in `env` at
    /// `suffix` (durable layout iff `cfg.wal`). Used by bulk builds and
    /// compaction, which address files through a [`SegmentEnv`] rather
    /// than paths.
    fn build_mutable_env(
        collection: Collection,
        cfg: &EngineConfig,
        env: &Arc<dyn SegmentEnv>,
        suffix: &str,
    ) -> Result<Self> {
        let stores = if cfg.wal {
            EngineStores {
                db: env.create(suffix)?,
                sum: Some(env.create(&format!("{suffix}.sum"))?),
                wal: Some(env.create(&format!("{suffix}.wal"))?),
            }
        } else {
            EngineStores {
                db: env.create(suffix)?,
                sum: None,
                wal: None,
            }
        };
        let mut sub = cfg.clone();
        sub.path = None;
        let mut eng = Self::build_on(collection, sub, stores)?;
        eng.seg_env = Arc::clone(env);
        Ok(eng)
    }

    /// Assembles the engine a finished bulk build publishes: an empty
    /// mutable generation plus the just-written segments, committed by
    /// one manifest write. Crash-ordering contract (the bulk crash
    /// suite pins it): segments are fully written and synced *before*
    /// this runs, the mutable generation is created and saved next, and
    /// the manifest write is last — a crash anywhere earlier leaves the
    /// previous manifest (or no database at all) in charge.
    pub(crate) fn from_bulk(
        cfg: EngineConfig,
        env: Arc<dyn SegmentEnv>,
        syms: SymbolTable,
        generation: u64,
        mutable_suffix: String,
        segments: Vec<ManifestSegment>,
        valix_entries: Vec<ValixEntry>,
    ) -> Result<Self> {
        let collection = Collection::with_symbols(Arc::new(syms));
        let n_docs: u32 = segments
            .iter()
            .map(|s| s.doc_base + s.n_docs)
            .max()
            .unwrap_or(0);
        let mut eng = Self::build_mutable_env(collection, &cfg, &env, &mutable_suffix)?;
        // The segments' leaf values, bulk-loaded into the fresh mutable
        // generation's pool (the valix always lives with the mutable
        // generation; its coverage spans the segment documents).
        eng.valix = Some(Valix::build_bulk(
            Arc::clone(&eng.pool),
            &valix_entries,
            n_docs,
        )?);
        eng.save()?;
        let manifest = Manifest {
            generation,
            mutable_suffix,
            segments,
        };
        eng.write_manifest(&manifest)?;
        eng.attach_manifest(&manifest)?;
        Ok(eng)
    }

    /// Folds the mutable delta into a new immutable segment per index
    /// kind and swaps in a fresh, empty mutable generation. Returns
    /// `false` (and does nothing) when the delta is empty.
    ///
    /// Publish protocol, in order: (1) build and sync the new segment
    /// files under the next generation's names — the live tree is
    /// untouched; (2) create and save the next mutable generation in
    /// *new* files, its epoch clock re-seeded past the old pool's so
    /// epoch-keyed caches and snapshots stay monotone; (3) write the
    /// manifest — the single commit point; (4) swap the in-memory state
    /// and unlink the old mutable generation's files. Readers pinned on
    /// the old pool keep reading through their open handles (the files
    /// are unlinked, never truncated), so a snapshot taken before a
    /// compaction answers bit-identically after it.
    pub fn compact(&mut self) -> Result<bool> {
        self.compact_with(crate::segbuild::DEFAULT_RUN_MEM_BYTES)
    }

    /// [`PrixEngine::compact`] with an explicit sort-run budget.
    pub fn compact_with(&mut self, run_mem_bytes: usize) -> Result<bool> {
        let live = match self.rp.as_ref().or(self.ep.as_ref()) {
            Some(i) => i,
            None => return Ok(false),
        };
        let n = live.doc_count() as u32;
        let doc_base = live.doc_base();
        if n == 0 {
            return Ok(false);
        }
        let generation = self.generation + 1;
        // (1) The delta's documents replay from their stored refinement
        // records through the same encoder the bulk path uses, so the
        // segment bytes come out identical to a bulk build's.
        let mut manifest_segments = self.manifest_segments.clone();
        for (idx, kname, seg_kind) in [
            (self.rp.as_ref(), "rp", SEG_KIND_RP),
            (self.ep.as_ref(), "ep", SEG_KIND_EP),
        ] {
            let idx = match idx {
                Some(i) => i,
                None => continue,
            };
            let suffix = format!(".g{generation}.{kname}.seg");
            let mut b = crate::segbuild::SegIndexBuilder::new(
                &self.seg_env,
                &suffix,
                idx.kind(),
                idx.dummy_sym(),
                doc_base,
                run_mem_bytes,
            )?;
            for local in 0..n {
                b.add_doc_data(&idx.load_doc(doc_base + local, true)?)?;
            }
            b.finish(idx.maxgap(), idx.childless_set())?;
            manifest_segments.push(ManifestSegment {
                kind: seg_kind,
                suffix,
                doc_base,
                n_docs: n,
            });
        }
        // (2) The replacement mutable generation: empty, same symbol
        // table (shared, not copied), same configuration, fresh files.
        let collection = Collection::with_symbols(Arc::clone(self.collection.shared_symbols()));
        let cfg = EngineConfig {
            buffer_pages: self.buffer_pages,
            labeling: self.labeling,
            path: None,
            build_rp: self.rp.is_some(),
            build_ep: self.ep.is_some(),
            arrangement_limit: self.arrangement_limit,
            wal: self.pool.is_durable(),
        };
        let new_suffix = format!(".g{generation}");
        let mut fresh = Self::build_mutable_env(collection, &cfg, &self.seg_env, &new_suffix)?;
        debug_assert_eq!(fresh.dummy, self.dummy, "dummy symbol survives compaction");
        // The valix covers *global* document ids, so it migrates
        // page-for-page into the replacement generation's pool rather
        // than being rebuilt from the (empty) fresh collection.
        fresh.valix = match &self.valix {
            Some(v) => Some(v.clone_into(Arc::clone(&fresh.pool))?),
            None => fresh.valix,
        };
        fresh.save()?;
        let epoch = self.pool.published_epoch().max(self.pool.current_epoch()) + 1;
        fresh.pool.reseed_epoch(epoch)?;
        // (3) Commit.
        let manifest = Manifest {
            generation,
            mutable_suffix: new_suffix,
            segments: manifest_segments,
        };
        self.write_manifest(&manifest)?;
        // (4) Publish in memory and retire the old generation's files.
        let old_suffix = std::mem::take(&mut self.mutable_suffix);
        self.collection = fresh.collection;
        self.pool = fresh.pool;
        self.rp = fresh.rp;
        self.ep = fresh.ep;
        self.catalog_store = fresh.catalog_store;
        self.saved_syms = fresh.saved_syms;
        self.valix = fresh.valix;
        self.recovery = None;
        self.attach_manifest(&manifest)?;
        for side in ["", ".sum", ".wal"] {
            let _ = self.seg_env.remove(&format!("{old_suffix}{side}"));
        }
        Ok(true)
    }

    /// The segment environment (bulk builds retire superseded
    /// generations through it).
    pub(crate) fn seg_env(&self) -> &Arc<dyn SegmentEnv> {
        &self.seg_env
    }

    /// The immutable tiers, for snapshot capture.
    pub(crate) fn seg_tiers(&self) -> &[SegTier] {
        &self.segments
    }

    /// Manifest generation of this database; 0 when no bulk build or
    /// compaction has ever produced segments.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The manifest rows describing every live segment file
    /// (`prix segments`).
    pub fn segment_manifest(&self) -> &[ManifestSegment] {
        &self.manifest_segments
    }

    /// Documents living in immutable segments.
    pub fn segment_docs(&self) -> u64 {
        self.segments.iter().map(|t| u64::from(t.n_docs)).sum()
    }

    /// Documents living in the mutable delta (what the next
    /// [`PrixEngine::compact`] would fold).
    pub fn mutable_docs(&self) -> usize {
        self.rp
            .as_ref()
            .or(self.ep.as_ref())
            .map_or(self.collection.len(), |i| i.doc_count())
    }

    /// Lifetime segment-block I/O counters (survive compaction pool
    /// swaps; `/metrics` reads them).
    pub fn seg_io(&self) -> &Arc<IoStats> {
        &self.seg_stats
    }

    /// Verifies every live segment file: header magic and geometry,
    /// per-block checksums, and the sorted-order invariant of the
    /// Trie-Symbol entries. Returns one report per manifest row.
    pub fn verify_segments(&self) -> Result<Vec<(String, SegmentCheck)>> {
        let mut out = Vec::new();
        for s in &self.manifest_segments {
            let tier = self
                .segments
                .iter()
                .find(|t| t.doc_base == s.doc_base)
                .ok_or_else(|| {
                    IndexError::Unsupported("manifest row without a loaded tier".into())
                })?;
            let idx = if s.kind == SEG_KIND_RP {
                tier.rp.as_ref()
            } else {
                tier.ep.as_ref()
            };
            let reader = idx.and_then(|i| i.segment()).ok_or_else(|| {
                IndexError::Unsupported("manifest row without a loaded tier".into())
            })?;
            out.push((
                s.suffix.clone(),
                reader.verify().map_err(IndexError::Storage)?,
            ));
        }
        Ok(out)
    }

    /// Parses `xml` and incrementally indexes it into every built
    /// index (§5.2.1 dynamic labeling in action). Use
    /// [`LabelingMode::Dynamic`] at build time to leave scope headroom;
    /// a bulk-exact index only accepts documents whose trie paths
    /// already exist or branch at the root.
    pub fn insert_document(&mut self, xml: &str) -> Result<prix_xml::DocId> {
        let tree = prix_xml::parse_document(xml, self.collection.symbols_mut())
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        self.insert_tree(tree)
    }

    /// [`PrixEngine::insert_document`] for an already-parsed tree
    /// (which must use this engine's symbol table).
    pub fn insert_tree(&mut self, tree: prix_xml::XmlTree) -> Result<prix_xml::DocId> {
        // Validate against *both* indexes before mutating either: if RP
        // accepted the document but EP then ran out of trie scope, the
        // two indexes would disagree on document ids forever after.
        if let Some(rp) = &self.rp {
            rp.check_insert(&tree)?;
        }
        if let Some(ep) = &self.ep {
            ep.check_insert(&tree)?;
        }
        // A reopened engine's collection starts empty while its indexes
        // carry every persisted document, and a tiered engine's mutable
        // indexes start above the segments, so collection ids only
        // track index ids when they were aligned before this insert
        // (fresh builds and pure in-memory engines).
        let was_aligned = self.rp.as_ref().or(self.ep.as_ref()).map_or(true, |i| {
            i.doc_base() as usize + i.doc_count() == self.collection.len()
        });
        let mut id = None;
        if let Some(rp) = &mut self.rp {
            id = Some(rp.insert_document(&tree)?);
        }
        if let Some(ep) = &mut self.ep {
            let ep_id = ep.insert_document(&tree)?;
            if let Some(rp_id) = id {
                debug_assert_eq!(rp_id, ep_id, "indexes assign ids in lockstep");
            }
            id = Some(ep_id);
        }
        self.planner.update(|s| s.merge_tree(&tree));
        if let Some(idx) = self.rp.as_ref().or(self.ep.as_ref()) {
            let b = idx.build_stats();
            self.planner.update(|s| {
                s.set_trie_shape(b.trie_nodes as u64, b.trie_paths as u64, b.sequences)
            });
        }
        if let (Some(vx), Some(id)) = (&mut self.valix, id) {
            if id == vx.covered() {
                vx.index_tree(&tree, id, self.collection.symbols())?;
            }
        }
        let coll_id = self.collection.add_tree(tree);
        let id = id.unwrap_or(coll_id);
        debug_assert!(
            !was_aligned || id == coll_id,
            "collection and indexes stay aligned"
        );
        Ok(id)
    }

    /// The shared planner (snapshots and the serving layer feed
    /// observations back through it).
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// An epoch-pinned, immutable view of this engine: the read path.
    /// Capture is cheap — index handles, `Arc` clones of the symbol
    /// table and planner, and one epoch pin — so a snapshot per read is
    /// affordable.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::capture(self)
    }

    /// Executes an ordered twig query through a fresh snapshot.
    pub fn query(&self, q: &TwigQuery) -> Result<QueryOutcome> {
        self.snapshot().query(q)
    }

    /// The value-predicate index, when this engine carries one.
    pub fn valix(&self) -> Option<&Valix> {
        self.valix.as_ref()
    }

    /// The commit epoch this engine's durable state is at: the pager's
    /// token for durable engines (what the next save will supersede),
    /// the pool's publish counter otherwise.
    pub fn epoch(&self) -> u64 {
        self.pool.current_epoch()
    }

    /// Batch ingest through the snapshot-isolation write path: every
    /// document is dry-run-validated against *both* indexes (the same
    /// lockstep rule as [`PrixEngine::insert_document`]), accepted
    /// documents are inserted and the batch is committed with **one**
    /// save (one WAL group commit, one epoch advance) instead of a
    /// commit per document.
    ///
    /// Rejected documents (trie scope exhausted, parse errors) are
    /// reported per-document and never touch either index. Any error
    /// *after* a document passed validation aborts the whole batch and
    /// is returned as `Err` — the caller must treat the engine as
    /// broken (see [`crate::snapshot::SharedEngine`], which rolls the
    /// pool back and poisons itself).
    ///
    /// The caller is responsible for the pool-level ingest protocol
    /// (`begin_ingest` / `publish_ingest`); this method only parses,
    /// validates, inserts, and saves.
    pub fn ingest_batch(&mut self, docs: &[String]) -> Result<IngestOutcome> {
        let mut accepted: Vec<prix_xml::DocId> = Vec::new();
        let mut rejected: Vec<(usize, String)> = Vec::new();
        for (i, xml) in docs.iter().enumerate() {
            match self.insert_document(xml) {
                Ok(id) => accepted.push(id),
                // `insert_document` validates both indexes before
                // mutating either, so an Unsupported error here means
                // the document was refused cleanly.
                Err(IndexError::Unsupported(msg)) => rejected.push((i, msg)),
                Err(e) => return Err(e),
            }
        }
        if !accepted.is_empty() {
            self.save()?;
        }
        Ok(IngestOutcome { accepted, rejected })
    }

    /// [`PrixEngine::ingest_batch`] over a *wrapper* document: the
    /// body's root element is discarded and each of its element
    /// children becomes one indexed document (the same convention as
    /// `Collection::add_xml_split` — how a monolithic DBLP-style
    /// export turns into one sequence per record). A malformed wrapper
    /// is a clean whole-batch rejection, not an error.
    pub fn ingest_batch_split(&mut self, wrapper: &str) -> Result<IngestOutcome> {
        let tree = match prix_xml::parse_document(wrapper, self.collection.symbols_mut()) {
            Ok(t) => t,
            Err(e) => {
                return Ok(IngestOutcome {
                    accepted: Vec::new(),
                    rejected: vec![(0, format!("parse error: {e}"))],
                })
            }
        };
        let subtrees: Vec<prix_xml::XmlTree> = tree
            .children(tree.root())
            .iter()
            .filter(|&&c| tree.kind(c) == prix_xml::NodeKind::Element)
            .map(|&c| tree.subtree(c))
            .collect();
        let mut accepted: Vec<prix_xml::DocId> = Vec::new();
        let mut rejected: Vec<(usize, String)> = Vec::new();
        if subtrees.is_empty() {
            rejected.push((0, "wrapper has no element children to ingest".into()));
        }
        for (i, sub) in subtrees.into_iter().enumerate() {
            match self.insert_tree(sub) {
                Ok(id) => accepted.push(id),
                Err(IndexError::Unsupported(msg)) => rejected.push((i, msg)),
                Err(e) => return Err(e),
            }
        }
        if !accepted.is_empty() {
            self.save()?;
        }
        Ok(IngestOutcome { accepted, rejected })
    }
}

/// What [`PrixEngine::ingest_batch`] did, before epoch publication.
pub struct IngestOutcome {
    /// Ids assigned to accepted documents, in input order.
    pub accepted: Vec<prix_xml::DocId>,
    /// `(input position, reason)` for each cleanly rejected document.
    pub rejected: Vec<(usize, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PrixEngine {
        let mut c = Collection::new();
        c.add_xml("<dblp><inproceedings><author>Jim Gray</author><year>1990</year></inproceedings></dblp>")
            .unwrap();
        c.add_xml("<dblp><inproceedings><year>1990</year><author>Jim Gray</author></inproceedings></dblp>")
            .unwrap();
        c.add_xml("<dblp><www><editor>E</editor><url>u</url></www></dblp>")
            .unwrap();
        PrixEngine::build(c, EngineConfig::default()).unwrap()
    }

    #[test]
    fn optimizer_routes_value_queries_to_ep() {
        let mut e = engine();
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"]"#)
            .unwrap();
        let out = e.query(&q).unwrap();
        assert_eq!(out.index_used, IndexKind::Extended);
        assert_eq!(out.matches.len(), 2);
    }

    #[test]
    fn optimizer_routes_structural_queries_to_rp() {
        let mut e = engine();
        let q = e.parse_query("//www[./editor]/url").unwrap();
        let out = e.query(&q).unwrap();
        assert_eq!(out.index_used, IndexKind::Regular);
        assert_eq!(out.matches.len(), 1);
    }

    #[test]
    fn ordered_vs_unordered() {
        let mut e = engine();
        // Ordered: author before year — only doc 0.
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#)
            .unwrap();
        let ordered = e.query(&q).unwrap();
        assert_eq!(ordered.matches.len(), 1);
        assert_eq!(ordered.matches[0].doc, 0);
        // Unordered: both docs.
        let unordered = e.snapshot().query_unordered(&q).unwrap();
        assert_eq!(unordered.matches.len(), 2);
    }

    #[test]
    fn unordered_embeddings_use_base_numbering() {
        let mut e = engine();
        let q = e
            .parse_query(r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#)
            .unwrap();
        let out = e.snapshot().query_unordered(&q).unwrap();
        let syms = e.collection().symbols();
        let author = syms.lookup("author").unwrap();
        for m in &out.matches {
            let t = e.collection().doc(m.doc);
            // Base query postorder: "Jim Gray"=1, author=2, "1990"=3,
            // year=4, inproceedings=5.
            assert_eq!(t.label_at(m.embedding[1]), author, "doc {}", m.doc);
        }
    }

    #[test]
    fn cold_cache_queries_report_io() {
        let mut e = engine();
        let q = e.parse_query("//www[./editor]/url").unwrap();
        e.clear_cache().unwrap();
        let out = e.query(&q).unwrap();
        assert!(out.io.physical_reads > 0, "cold run must hit the disk");
        let warm = e.query(&q).unwrap();
        assert_eq!(warm.io.physical_reads, 0, "warm run is fully cached");
        assert_eq!(warm.matches.len(), out.matches.len());
    }

    #[test]
    fn rp_only_engine_rejects_value_queries() {
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let cfg = EngineConfig {
            build_ep: false,
            ..Default::default()
        };
        let mut e = PrixEngine::build(c, cfg).unwrap();
        let q = e.parse_query(r#"//a[./b="v"]"#).unwrap();
        assert!(e.query(&q).is_err());
    }

    #[test]
    fn file_backed_engine_works() {
        let dir = std::env::temp_dir().join(format!("prix-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut c = Collection::new();
        c.add_xml("<a><b><c/></b></a>").unwrap();
        let cfg = EngineConfig {
            path: Some(dir.join("db.prix")),
            buffer_pages: 16,
            ..Default::default()
        };
        let mut e = PrixEngine::build(c, cfg).unwrap();
        let q = e.parse_query("//a/b/c").unwrap();
        let out = e.query(&q).unwrap();
        assert_eq!(out.matches.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dynamic_labeling_engine_matches_exact() {
        let mut c = Collection::new();
        for i in 0..20 {
            c.add_xml(&format!("<a><b><c>v{i}</c></b><d/></a>"))
                .unwrap();
        }
        let exact = PrixEngine::build(c.clone(), EngineConfig::default()).unwrap();
        let dynamic = PrixEngine::build(
            c,
            EngineConfig {
                labeling: LabelingMode::Dynamic { alpha: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        let mut syms = exact.collection().symbols().clone();
        let q = parse_xpath("//a[./b/c]/d", &mut syms).unwrap();
        let a = exact.query(&q).unwrap();
        let b = dynamic.query(&q).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.matches.len(), 20);
    }

    #[test]
    fn explain_describes_the_plan() {
        let snap = engine().snapshot();
        let text = snap.explain("//www[./editor]/url").unwrap();
        assert!(text.contains("RPIndex"), "{text}");
        assert!(text.contains("leaf-extended"), "{text}");
        assert!(text.contains("LPS(Q)"), "{text}");
        assert!(text.contains("MaxGap rules"), "{text}");
        let tv = snap
            .explain(r#"//inproceedings[./author="Jim Gray"]"#)
            .unwrap();
        assert!(tv.contains("EPIndex"), "{tv}");
    }

    /// Collapses digit runs (with embedded dots) to `#` and space runs
    /// to one space, so the explain pins cover the full output shape —
    /// including the planner section — without re-pinning on every
    /// cost-constant or dataset tweak.
    fn normalize_explain(s: &str) -> String {
        let mut out = String::new();
        let (mut in_num, mut in_space) = (false, false);
        for ch in s.chars() {
            if ch.is_ascii_digit() || (ch == '.' && in_num) {
                if !in_num {
                    out.push('#');
                    in_num = true;
                }
                in_space = false;
                continue;
            }
            in_num = false;
            if ch == ' ' {
                if in_space {
                    continue;
                }
                in_space = true;
            } else {
                in_space = false;
            }
            out.push(ch);
        }
        out
    }

    #[test]
    fn explain_output_shape_is_pinned() {
        // The serving layer's `GET /explain` exposes this text
        // verbatim; pin the exact shape (digits and space runs
        // normalized — see `normalize_explain`) for one path query and
        // one twig query so refactors can't silently change the
        // contract.
        let snap = engine().snapshot();
        assert_eq!(
            normalize_explain(&snap.explain("/dblp/www/url").unwrap()),
            "index: RPIndex\n\
             plan: RPIndex, leaf-extended query (§# fast path)\n\
             LPS(Q) = url www dblp\n\
             NPS(Q) = # # #\n\
             edges = / / / /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             MaxGap rules: # of # adjacent pairs bounded\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             planner: engine=prix_rp maxgap=on cost=#us (routed) shape=n#l#v#d# ewma_rows=#\n\
             \x20alt prix_rp maxgap=on cost= #us\n\
             \x20alt prix_rp maxgap=off cost= #us\n\
             \x20alt twigstack cost= #us\n\
             \x20alt prix_ep maxgap=on cost= #us\n\
             \x20alt prix_ep maxgap=off cost= #us\n\
             \x20alt twigstackxb cost= #us\n\
             \x20alt vist cost= #us\n"
        );
        assert_eq!(
            normalize_explain(&snap.explain("//www[./editor]/url").unwrap()),
            "index: RPIndex\n\
             plan: RPIndex, leaf-extended query (§# fast path)\n\
             LPS(Q) = editor www url www\n\
             NPS(Q) = # # # #\n\
             edges = / / / / /\n\
             executor: streaming filter -> refine -> project (limit pushdown)\n\
             MaxGap rules: # of # adjacent pairs bounded\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             \x20positions #->#: distance <= min(#, per-node) + #\n\
             planner: engine=prix_rp maxgap=on cost=#us (routed) shape=n#l#v#d# ewma_rows=#\n\
             \x20alt prix_rp maxgap=on cost= #us\n\
             \x20alt prix_rp maxgap=off cost= #us\n\
             \x20alt twigstack cost= #us\n\
             \x20alt prix_ep maxgap=on cost= #us\n\
             \x20alt prix_ep maxgap=off cost= #us\n\
             \x20alt twigstackxb cost= #us\n\
             \x20alt vist cost= #us\n"
        );
    }

    #[test]
    fn incremental_insert_matches_bulk_build() {
        // Build small, insert more, compare against building everything
        // at once.
        let docs = [
            "<dblp><www><editor>E</editor><url>u</url></www></dblp>",
            "<dblp><inproceedings><author>A</author><year>1990</year></inproceedings></dblp>",
            "<dblp><www><editor>F</editor><url>v</url></www></dblp>",
            "<x><y><z>deep</z></y></x>",
            "<dblp><www><url>no-editor</url></www></dblp>",
        ];
        let mut base = Collection::new();
        for d in &docs[..2] {
            base.add_xml(d).unwrap();
        }
        let mut incremental = PrixEngine::build(
            base,
            EngineConfig {
                labeling: LabelingMode::Dynamic { alpha: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        for d in &docs[2..] {
            incremental.insert_document(d).unwrap();
        }

        let mut full = Collection::new();
        for d in &docs {
            full.add_xml(d).unwrap();
        }
        let mut bulk = PrixEngine::build(full, EngineConfig::default()).unwrap();

        for xpath in [
            "//www[./editor]/url",
            r#"//inproceedings[./author="A"]"#,
            "//x//z",
            "//www/url",
        ] {
            let qi = incremental.parse_query(xpath).unwrap();
            let qb = bulk.parse_query(xpath).unwrap();
            let mi = incremental.query(&qi).unwrap().matches;
            let mb = bulk.query(&qb).unwrap().matches;
            assert_eq!(mi, mb, "{xpath}");
            let oracle = crate::naive::naive_count(incremental.collection(), &qi);
            assert_eq!(mi.len(), oracle, "{xpath} vs oracle");
        }
    }

    #[test]
    fn incremental_insert_shares_existing_paths() {
        let mut c = Collection::new();
        c.add_xml("<a><b><c>v</c></b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                labeling: LabelingMode::Dynamic { alpha: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        let nodes_before = e.rp_index().unwrap().build_stats().trie_nodes;
        // Identical structure: the RP trie path is fully shared.
        e.insert_document("<a><b><c>w</c></b></a>").unwrap();
        let nodes_after = e.rp_index().unwrap().build_stats().trie_nodes;
        assert_eq!(nodes_before, nodes_after, "no new RP trie nodes");
        let q = e.parse_query("//a/b/c").unwrap();
        assert_eq!(e.query(&q).unwrap().matches.len(), 2);
    }

    #[test]
    fn failed_ep_insert_leaves_indexes_in_lockstep() {
        // Exact labeling packs trie scopes densely: only existing paths
        // and fresh root branches are insertable. `<a><c>v</c></a>`
        // diverges from `<a><b>v</b></a>` at the *root* of the RP trie
        // (LPS `c a` vs `b a`), which exact labeling accepts — but its
        // EP sequence (`v c a` vs `v b a`) diverges *below* the packed
        // level-1 node for `v`, which underflows. The engine must
        // reject the document *before* touching either index.
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(c, EngineConfig::default()).unwrap();
        assert!(
            e.rp_index()
                .unwrap()
                .check_insert(
                    &prix_xml::parse_document(
                        "<a><c>v</c></a>",
                        &mut e.collection.symbols().clone()
                    )
                    .unwrap()
                )
                .is_ok(),
            "RP alone would accept the document (root branch)"
        );
        let err = e.insert_document("<a><c>v</c></a>").unwrap_err();
        assert!(
            matches!(err, IndexError::Unsupported(_)),
            "expected scope underflow, got {err}"
        );
        let rp_docs = e.rp_index().unwrap().doc_count();
        let ep_docs = e.ep_index().unwrap().doc_count();
        assert_eq!(rp_docs, ep_docs, "indexes out of lockstep");
        assert_eq!(rp_docs, 1, "rejected document must not be half-indexed");
        assert!(e.collection().len() == 1, "collection unchanged");
        // The engine still works, and an insert both indexes accept
        // (identical document: both paths shared) assigns aligned ids.
        let id = e.insert_document("<a><b>v</b></a>").unwrap();
        assert_eq!(id, 1);
        let q = e.parse_query("//a/b").unwrap();
        assert_eq!(e.query(&q).unwrap().matches.len(), 2);
        let qv = e.parse_query(r#"//b[text()="v"]"#).unwrap();
        assert_eq!(e.query(&qv).unwrap().matches.len(), 2);
    }

    #[test]
    fn query_batch_matches_serial_and_preserves_order() {
        let mut e = engine();
        let xpaths = [
            "//www[./editor]/url",
            r#"//inproceedings[./author="Jim Gray"]"#,
            "//dblp//year",
            "//www/url",
        ];
        let queries: Vec<_> = xpaths.iter().map(|x| e.parse_query(x).unwrap()).collect();
        let serial: Vec<_> = queries
            .iter()
            .map(|q| e.query(q).unwrap().matches)
            .collect();
        for threads in [1, 2, 4, 16] {
            let batch = e.snapshot().query_batch(&queries, threads).unwrap();
            assert_eq!(batch.len(), queries.len());
            for (i, out) in batch.iter().enumerate() {
                assert_eq!(out.matches, serial[i], "threads={threads} query {i}");
            }
        }
    }

    #[test]
    fn query_batch_zero_threads_clamps_to_serial() {
        // Regression: `threads == 0` must behave exactly like the
        // serial path (clamped to 1), not spawn zero workers and
        // return nothing / hang.
        let mut e = engine();
        let xpaths = ["//www[./editor]/url", "//dblp//year"];
        let queries: Vec<_> = xpaths.iter().map(|x| e.parse_query(x).unwrap()).collect();
        let batch = e.snapshot().query_batch(&queries, 0).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, out) in queries.iter().zip(&batch) {
            assert_eq!(out.matches, e.query(q).unwrap().matches);
        }
        // Empty input with zero threads is a no-op, not a panic.
        assert!(e.snapshot().query_batch(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn query_batch_surfaces_errors() {
        // An RP-only engine cannot answer value queries; the batch must
        // report the failure rather than swallow it.
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let cfg = EngineConfig {
            build_ep: false,
            ..Default::default()
        };
        let mut e = PrixEngine::build(c, cfg).unwrap();
        let good = e.parse_query("//a/b").unwrap();
        let bad = e.parse_query(r#"//a[./b="v"]"#).unwrap();
        let queries = vec![good, bad];
        assert!(e.snapshot().query_batch(&queries, 2).is_err());
    }

    #[test]
    fn durable_engine_writes_sidecars_and_reopens_clean() {
        let dir = std::env::temp_dir().join(format!("prix-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                labeling: LabelingMode::Dynamic { alpha: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        e.save().unwrap();
        drop(e);
        assert!(sibling(&path, ".sum").exists(), "checksum sidecar created");
        assert!(sibling(&path, ".wal").exists(), "write-ahead log created");
        let mut r = PrixEngine::reopen(&path, 64).unwrap();
        let rep = r.recovery().expect("durable reopen reports recovery");
        assert!(!rep.unclean_shutdown, "clean shutdown: nothing to replay");
        assert_eq!(rep.replayed_frames, 0);
        let (verified, _) = r.verify_checksums().unwrap();
        assert!(verified > 0, "pages have checksums");
        let q = r.parse_query("//a/b").unwrap();
        assert_eq!(r.query(&q).unwrap().matches.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_wal_engine_is_legacy_and_reports_no_recovery() {
        let dir = std::env::temp_dir().join(format!("prix-nowal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                wal: false,
                ..Default::default()
            },
        )
        .unwrap();
        e.save().unwrap();
        drop(e);
        assert!(!sibling(&path, ".sum").exists(), "no sidecar without WAL");
        let mut r = PrixEngine::reopen(&path, 64).unwrap();
        assert!(r.recovery().is_none());
        assert!(
            r.verify_checksums().is_err(),
            "legacy file has no checksums"
        );
        let q = r.parse_query("//a/b").unwrap();
        assert_eq!(r.query(&q).unwrap().matches.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_engine_reopens_without_wal_on_request() {
        // `serve --no-wal` path: durable database, WAL disabled at
        // reopen. Checksums stay maintained; saves write direct.
        let dir = std::env::temp_dir().join(format!("prix-nowal-ro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                labeling: LabelingMode::Dynamic { alpha: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        e.save().unwrap();
        drop(e);
        let mut r = PrixEngine::reopen_opts(&path, 64, false).unwrap();
        assert!(r.recovery().is_some(), "recovery still ran");
        assert!(!r.pool().is_durable(), "pool runs without a WAL");
        r.insert_document("<a><b>w</b></a>").unwrap();
        r.save().unwrap();
        let (verified, _) = r.verify_checksums().unwrap();
        assert!(verified > 0);
        drop(r);
        let mut again = PrixEngine::reopen(&path, 64).unwrap();
        let q = again.parse_query("//a/b").unwrap();
        assert_eq!(again.query(&q).unwrap().matches.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inserted_documents_survive_save_and_reopen() {
        let dir = std::env::temp_dir().join(format!("prix-incr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.prix");
        let mut c = Collection::new();
        c.add_xml("<a><b>v</b></a>").unwrap();
        let mut e = PrixEngine::build(
            c,
            EngineConfig {
                path: Some(path.clone()),
                labeling: LabelingMode::Dynamic { alpha: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        e.insert_document("<a><q><b>w</b></q></a>").unwrap();
        e.save().unwrap();
        drop(e);
        let mut reopened = PrixEngine::reopen(&path, 256).unwrap();
        let q = reopened.parse_query("//a//b").unwrap();
        assert_eq!(reopened.query(&q).unwrap().matches.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
