//! The read path and snapshot-isolated online ingest: versioned
//! catalogs over the engine.
//!
//! Every read is a snapshot read. [`EngineSnapshot`] carries the only
//! query methods — ordered, batched, unordered (§5.7), routed, and
//! explain — and `PrixEngine::query` is shorthand for querying a fresh
//! one. Ordered reads descend the tiers through
//! [`PrixIndex::execute`] streams and end in one canonical
//! `(doc, embedding)` sort.
//!
//! The paper treats the index as a build-once artifact with §5.2.1's
//! dynamic labeling for incremental inserts; this module makes those
//! inserts safe *while serving*. The scheme is epoch-based multi-
//! versioning at two levels:
//!
//! * **Catalog level** — [`EngineSnapshot`] freezes everything a query
//!   needs (symbol table, RP/EP index handles, the optimizer's
//!   arrangement limit) at one published epoch. Snapshots are immutable
//!   and cheap to share (`Arc`); queries against one snapshot are
//!   bit-identical no matter what the writer does concurrently.
//! * **Page level** — each snapshot holds a [`prix_storage::EpochPin`].
//!   While pinned, the buffer pool serves any page the writer has since
//!   dirtied from its captured pre-image (see
//!   `BufferPool::begin_ingest`), so the frozen index handles read the
//!   exact bytes of their epoch.
//!
//! [`SharedEngine`] is the concurrency wrapper: a single-writer
//! [`SharedEngine::ingest`] path that batches documents through one
//! save (one WAL group commit), and a wait-free-for-readers
//! [`SharedEngine::snapshot`] that hands out the current epoch's view.
//! Publication is atomic — the two-barrier WAL commit inside
//! `PrixEngine::save` *is* the durability point, and swapping the
//! current snapshot afterwards is the visibility point. A crash between
//! the two recovers to exactly the new epoch (the commit landed); a
//! crash before the commit barrier recovers to exactly the old one.
//!
//! Query parsing against a snapshot never mutates the frozen symbol
//! table: unknown labels are parked in a [`ScratchSyms`] overlay past
//! the table's end, where they match nothing (no tag range in any
//! index), which is exactly the right answer for a label the pinned
//! epoch has never seen.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prix_storage::{EpochPin, IoScope};
use prix_xml::{Collection, DocId, PostNum, ScratchSyms, SymbolTable};

use crate::arrange::arrangements;
use crate::engine::{PrixEngine, QueryOutcome, SegTier};
use crate::index::{ExecOpts, IndexError, IndexKind, PrixIndex, QueryStats, Result, TwigMatch};
use crate::plan::{AltProvider, EngineCaps, EngineChoice, EngineId, Planner, Routed, Router};
use crate::query::TwigQuery;
use crate::valix::{PredEval, Valix};
use crate::xpath::{parse_xpath, XPathError};

/// An immutable, epoch-pinned view of a [`PrixEngine`] — the only read
/// path: every query, explain, and routed execution runs against one.
///
/// Everything reachable from a snapshot reads as of its
/// [`EngineSnapshot::epoch`]: the index handles are clones sharing the
/// buffer pool, and every query method installs the snapshot's epoch
/// pin for the duration of the call so the pool serves pre-images of
/// any page a concurrent ingest has rewritten. Ordered results come
/// back in the canonical `(doc, embedding)` order.
pub struct EngineSnapshot {
    epoch: u64,
    /// Shared with the engine's collection, never copied at capture:
    /// the writer's next parse copies its own side instead.
    syms: Arc<SymbolTable>,
    rp: Option<PrixIndex>,
    ep: Option<PrixIndex>,
    /// Immutable segment tiers at capture time. The tiers themselves
    /// never change after publication; cloning shares the underlying
    /// segment readers. Epoch pinning is only needed for the mutable
    /// `rp`/`ep` handles above.
    segments: Vec<SegTier>,
    generation: u64,
    arrangement_limit: usize,
    /// The engine's planner, *shared* (not frozen): observed stage
    /// clocks from queries served off this snapshot feed the same
    /// statistics later plans read. Plans are advisory — sharing never
    /// affects result bytes.
    planner: Arc<Planner>,
    /// The value index at capture time. A clone of the engine's handle:
    /// shares pages through the pool, and under this snapshot's epoch
    /// pin reads the frozen bytes of its epoch like `rp`/`ep` do.
    valix: Option<Valix>,
    pin: EpochPin,
}

impl EngineSnapshot {
    pub(crate) fn capture(engine: &PrixEngine) -> Self {
        let pin = engine.pool().pin_epoch();
        EngineSnapshot {
            epoch: pin.epoch(),
            syms: Arc::clone(engine.collection().shared_symbols()),
            rp: engine.rp_index().cloned(),
            ep: engine.ep_index().cloned(),
            segments: engine.seg_tiers().to_vec(),
            generation: engine.generation(),
            arrangement_limit: engine.arrangement_limit(),
            planner: Arc::clone(engine.planner()),
            valix: engine.valix().cloned(),
            pin,
        }
    }

    /// Builds the predicate evaluator for `q` against this epoch's
    /// value index (`None` when the query has no predicates).
    fn pred_eval(&self, q: &TwigQuery) -> Result<Option<PredEval>> {
        PredEval::build(q, self.valix.as_ref(), &self.syms)
    }

    /// The tier list this snapshot's queries descend.
    fn tiers(&self) -> Vec<TierRefs<'_>> {
        collect_tiers(&self.segments, self.rp.as_ref(), self.ep.as_ref())
    }

    /// Immutable segment tiers visible at this epoch.
    pub fn segment_tiers(&self) -> usize {
        self.segments.len()
    }

    /// Segment generation of the manifest visible at this epoch
    /// (0 = the database has never been segmented).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Documents living in immutable segments at this epoch.
    pub fn segment_docs(&self) -> u64 {
        self.segments.iter().map(|t| u64::from(t.n_docs)).sum()
    }

    /// Documents living in the mutable delta at this epoch.
    pub fn mutable_docs(&self) -> usize {
        self.rp
            .as_ref()
            .or(self.ep.as_ref())
            .map_or(0, |i| i.doc_count())
    }

    /// The published epoch this view is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen symbol table (safe to share across threads).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Parses an XPath against the frozen symbol table without
    /// mutating it. Labels unknown at this epoch resolve to scratch
    /// symbols that match nothing.
    pub fn parse_query(&self, xpath: &str) -> std::result::Result<TwigQuery, XPathError> {
        let mut scratch = ScratchSyms::new(&self.syms);
        parse_xpath(xpath, &mut scratch)
    }

    /// Executes an ordered twig query against this epoch's view.
    pub fn query(&self, q: &TwigQuery) -> Result<QueryOutcome> {
        self.query_opts(q, &ExecOpts::default())
    }

    /// [`EngineSnapshot::query`] with execution options. With
    /// [`ExecOpts::limit`] set the executor stops pulling at the limit —
    /// the remaining trie range queries and refinements never happen.
    pub fn query_opts(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome> {
        self.query_forced(q, opts, None)
    }

    /// [`EngineSnapshot::query_opts`] with an optional forced index kind
    /// (the router's RP-vs-EP decision; `None` = §5.6 routing).
    pub(crate) fn query_forced(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        force: Option<IndexKind>,
    ) -> Result<QueryOutcome> {
        let _pin = self.pin.guard();
        let pred = self.pred_eval(q)?;
        run_ordered(&self.tiers(), q, opts, force, pred.as_ref())
    }

    /// Executes a batch of ordered twig queries on up to `threads`
    /// worker threads, returning one [`QueryOutcome`] per query in
    /// input order. Workers pull queries from a shared atomic cursor,
    /// so long and short queries balance across threads; all of them
    /// read this snapshot's epoch (the pin is installed per query, on
    /// each worker thread).
    ///
    /// `threads` is clamped to `1..=queries.len()`: `threads == 0` is
    /// treated as 1 (serial), never an empty worker set. Each
    /// outcome's [`QueryOutcome::io`] is attributed through a
    /// per-thread [`IoScope`], so it counts exactly the pages that
    /// query touched — concurrent queries on other workers never leak
    /// into it.
    pub fn query_batch(&self, queries: &[TwigQuery], threads: usize) -> Result<Vec<QueryOutcome>> {
        self.query_batch_opts(queries, threads, &ExecOpts::default())
    }

    /// [`EngineSnapshot::query_batch`] with per-query execution options
    /// (each query gets the same `opts`, including any limit).
    pub fn query_batch_opts(
        &self,
        queries: &[TwigQuery],
        threads: usize,
        opts: &ExecOpts,
    ) -> Result<Vec<QueryOutcome>> {
        run_query_batch(queries, threads, |q| self.query_opts(q, opts))
    }

    /// Executes an unordered twig query (§5.7 arrangements) against
    /// this epoch's view.
    pub fn query_unordered(&self, q: &TwigQuery) -> Result<QueryOutcome> {
        self.query_unordered_opts(q, &ExecOpts::default())
    }

    /// [`EngineSnapshot::query_unordered`] with execution options. With
    /// [`ExecOpts::limit`] set, arrangements interleave through the
    /// *shared* limit: each arrangement is streamed, distinct
    /// base-numbered matches count against the one budget, and as soon
    /// as it is reached the current stream is abandoned mid-trie and
    /// the remaining arrangements never run at all.
    pub fn query_unordered_opts(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome> {
        let _pin = self.pin.guard();
        let pred = self.pred_eval(q)?;
        run_unordered(
            &self.tiers(),
            self.arrangement_limit,
            q,
            opts,
            &self.planner,
            pred.as_ref(),
        )
    }

    /// The engine capabilities the planner scores over at this epoch:
    /// which PRIX indexes exist, and whether the alternative engines
    /// could be built (they replay documents out of the RP index, so
    /// every tier must have one — see
    /// [`EngineSnapshot::reconstruct_collection`]).
    pub fn engine_caps(&self) -> EngineCaps {
        let tiers = self.tiers();
        let (rp, ep) = tiers[0];
        let alt = tiers.iter().all(|(rp, _)| rp.is_some());
        EngineCaps {
            rp: rp.is_some(),
            ep: ep.is_some(),
            vist: alt,
            twigstack: alt,
        }
    }

    /// The shared planner.
    pub fn planner(&self) -> &Arc<Planner> {
        &self.planner
    }

    /// Plans and executes `q` through the cost-based router against
    /// this epoch's view: the planner scores every alternative,
    /// `forced` bypasses the comparison, and the matches come back in
    /// the canonical `(doc, embedding)` order whatever engine ran.
    pub fn query_routed(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        forced: Option<EngineChoice>,
        alts: &dyn AltProvider,
    ) -> Result<Routed> {
        Router { prix: self, alts }.route(q, opts, forced)
    }

    /// Rebuilds the document trees this epoch can see from the RP
    /// index's stored sequences
    /// ([`prix_prufer::reconstruct::tree_from_sequences`]), in global
    /// document order across every tier. This is how the alternative
    /// engines get a collection to encode on a reopened database,
    /// whose in-memory collection is empty. All nodes come back as
    /// elements (the RP encoding does not mark text nodes), which is
    /// exactly what label-driven matching needs. Requires the RP index
    /// in every tier.
    pub fn reconstruct_collection(&self) -> Result<Collection> {
        let _pin = self.pin.guard();
        let mut collection = Collection::with_symbols(Arc::clone(&self.syms));
        for &(rp, _) in &self.tiers() {
            let rp = rp.ok_or_else(|| {
                IndexError::Unsupported(
                    "reconstructing documents requires the RPIndex in every tier".into(),
                )
            })?;
            let base = rp.doc_base();
            for local in 0..rp.doc_count() as u32 {
                let data = rp.load_doc(base + local, true)?;
                let tree = prix_prufer::reconstruct::tree_from_sequences(
                    &data.lps,
                    &data.nps,
                    &data.leaves,
                )
                .map_err(|e| {
                    IndexError::Unsupported(format!("stored sequences are inconsistent: {e}"))
                })?;
                let id = collection.add_tree(tree);
                debug_assert_eq!(id, base + local, "tiers ascend contiguously");
            }
        }
        Ok(collection)
    }

    /// Describes the plan for an XPath at this epoch: the index choice
    /// (§5.6), the query's sequences, edge constraints, and MaxGap
    /// rules, any predicates, then the cost-based planner's ranked
    /// alternatives. Parses through a [`ScratchSyms`] overlay, so
    /// labels this epoch has never seen still have names to print.
    pub fn explain(&self, xpath: &str) -> Result<String> {
        let mut syms = ScratchSyms::new(&self.syms);
        let q = parse_xpath(xpath, &mut syms)
            .map_err(|e| IndexError::Unsupported(format!("parse error: {e}")))?;
        let _pin = self.pin.guard();
        // Every tier routes the same way; the first has the MaxGap
        // values worth showing.
        let tiers = self.tiers();
        let (rp, ep) = tiers[0];
        let idx = pick_index(rp, ep, &q, None)?;
        let mut out = format!("index: {}\n", idx.kind());
        out.push_str(&idx.explain(&q, &syms)?);
        if let Some(pred) = self.pred_eval(&q)? {
            out.push_str(&explain_pred(&q, &pred, &syms));
        }
        let report = self
            .planner
            .decide(&q, self.engine_caps(), &ExecOpts::default(), None)?;
        out.push_str(&report.render());
        Ok(out)
    }
}

/// What one [`SharedEngine::ingest`] call did.
#[derive(Debug)]
pub struct IngestReport {
    /// Ids assigned to accepted documents, in input order.
    pub accepted: Vec<DocId>,
    /// `(input position, reason)` for documents rejected cleanly
    /// (parse errors, trie scope exhausted). Rejection never touches
    /// either index.
    pub rejected: Vec<(usize, String)>,
    /// The epoch readers see the accepted documents at. Unchanged from
    /// the previous epoch when nothing was accepted.
    pub epoch: u64,
}

/// A callback invoked with the new epoch after each successful publish.
type PublishHook = Box<dyn Fn(u64) + Send + Sync>;

/// A [`PrixEngine`] shared between one writer and any number of
/// snapshot readers.
///
/// Readers call [`SharedEngine::snapshot`] (a mutex-protected `Arc`
/// clone — no page I/O, no symbol-table lock) and run queries against
/// the returned view for as long as they like; the view never changes
/// underneath them. The writer calls [`SharedEngine::ingest`], which
/// serializes on an internal lock, validates and inserts a batch,
/// commits it durably with one save, and atomically publishes a new
/// snapshot.
pub struct SharedEngine {
    writer: Mutex<PrixEngine>,
    current: Mutex<Arc<EngineSnapshot>>,
    poisoned: AtomicBool,
    /// The engine's *current* buffer pool, mirrored here so metrics
    /// and shutdown never block on the writer lock. Behind its own
    /// mutex because [`SharedEngine::compact`] swaps the pool.
    pool: Mutex<Arc<prix_storage::BufferPool>>,
    /// Pools superseded by compaction. Held weakly: a retired pool
    /// stays alive only while some snapshot still pins it, and
    /// [`SharedEngine::pinned_epochs`] keeps counting those readers
    /// until they drain.
    retired_pools: Mutex<Vec<std::sync::Weak<prix_storage::BufferPool>>>,
    /// Lifetime segment-block I/O counters (shared with the engine;
    /// compaction never resets them).
    seg_io: Arc<prix_storage::IoStats>,
    recovery: Option<prix_storage::RecoveryReport>,
    /// Called with the new epoch right after each publish becomes
    /// visible (serving layers hang cache invalidation off this).
    on_publish: Mutex<Option<PublishHook>>,
}

impl SharedEngine {
    /// Wraps an engine, publishing its current state as epoch-pinned
    /// snapshot number one.
    pub fn new(engine: PrixEngine) -> Self {
        let current = Arc::new(EngineSnapshot::capture(&engine));
        let pool = Arc::clone(engine.pool());
        let seg_io = Arc::clone(engine.seg_io());
        let recovery = engine.recovery();
        SharedEngine {
            writer: Mutex::new(engine),
            current: Mutex::new(current),
            poisoned: AtomicBool::new(false),
            pool: Mutex::new(pool),
            retired_pools: Mutex::new(Vec::new()),
            seg_io,
            recovery,
            on_publish: Mutex::new(None),
        }
    }

    /// Registers a callback invoked with the new epoch *after* every
    /// successful publish — the snapshot swap has already happened, so
    /// anything the callback invalidates can be repopulated from the
    /// new epoch immediately. One callback at a time; registering
    /// replaces the previous one.
    pub fn set_on_publish(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.on_publish.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(hook));
    }

    /// The engine's *current* buffer pool (metrics, shutdown flush).
    /// Does not take the writer lock. Compaction replaces the pool, so
    /// callers get a clone of the live `Arc` rather than a reference.
    pub fn pool(&self) -> Arc<prix_storage::BufferPool> {
        Arc::clone(&self.pool.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Lifetime segment-block I/O counters (`/metrics`). Never reset,
    /// even across compaction pool swaps.
    pub fn seg_io(&self) -> &Arc<prix_storage::IoStats> {
        &self.seg_io
    }

    /// Epoch-pin observability aggregated across the live pool *and*
    /// every pool retired by compaction that old snapshots still hold:
    /// `(active pins, oldest pinned epoch)`. Dead retired pools are
    /// pruned on the way.
    pub fn pinned_epochs(&self) -> (usize, Option<u64>) {
        let mut count = 0usize;
        let mut oldest: Option<u64> = None;
        let mut fold = |(c, o): (usize, Option<u64>)| {
            count += c;
            oldest = match (oldest, o) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        fold(self.pool().pinned_epochs());
        let mut retired = self.retired_pools.lock().unwrap_or_else(|e| e.into_inner());
        retired.retain(|w| match w.upgrade() {
            Some(p) => {
                fold(p.pinned_epochs());
                true
            }
            None => false,
        });
        (count, oldest)
    }

    /// Folds the mutable delta into immutable segments and publishes
    /// the compacted view (see [`PrixEngine::compact`]). Serializes on
    /// the writer lock like ingest. Returns the published epoch, or
    /// `None` when the delta was empty and nothing changed. Snapshots
    /// taken before the call keep answering bit-identically from the
    /// retired pool and the old segment set.
    pub fn compact(&self) -> Result<Option<u64>> {
        let mut engine = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_poisoned() {
            return Err(IndexError::Unsupported(
                "engine poisoned by an earlier failed ingest; reopen the database".into(),
            ));
        }
        match engine.compact() {
            Ok(false) => Ok(None),
            Ok(true) => {
                // The engine swapped in a fresh pool; mirror the swap
                // here and keep a weak handle on the old pool so its
                // pinned readers stay observable until they drain.
                let new_pool = Arc::clone(engine.pool());
                {
                    let mut slot = self.pool.lock().unwrap_or_else(|e| e.into_inner());
                    let old = std::mem::replace(&mut *slot, new_pool);
                    self.retired_pools
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Arc::downgrade(&old));
                }
                let snap = Arc::new(EngineSnapshot::capture(&engine));
                let epoch = snap.epoch();
                *self.current.lock().unwrap_or_else(|e| e.into_inner()) = snap;
                if let Some(hook) = self
                    .on_publish
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                {
                    hook(epoch);
                }
                Ok(Some(epoch))
            }
            Err(e) => {
                // Compaction failed at an unknown point; the in-memory
                // state may be mid-swap. Readers keep the last good
                // snapshot, further writes are refused.
                self.poisoned.store(true, Ordering::Release);
                Err(e)
            }
        }
    }

    /// What crash recovery did when the wrapped engine was opened.
    pub fn recovery(&self) -> Option<prix_storage::RecoveryReport> {
        self.recovery
    }

    /// The current published snapshot. Holding the returned `Arc` pins
    /// its epoch: the buffer pool retains pre-images of every page a
    /// later ingest rewrites until the snapshot is dropped.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Whether a failed ingest has poisoned the writer. Reads keep
    /// serving the last published snapshot; further ingests are
    /// refused.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Ingests a batch of XML documents and publishes a new epoch.
    ///
    /// Blocks until the writer lock is available; see
    /// [`SharedEngine::try_ingest`] for the non-blocking variant
    /// serving layers use for admission control.
    pub fn ingest(&self, docs: &[String]) -> Result<IngestReport> {
        let guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.ingest_locked(guard, |e| e.ingest_batch(docs))
    }

    /// [`SharedEngine::ingest`] over a wrapper document whose root's
    /// element children each become one indexed document (see
    /// `PrixEngine::ingest_batch_split`).
    pub fn ingest_split(&self, wrapper: &str) -> Result<IngestReport> {
        let guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.ingest_locked(guard, |e| e.ingest_batch_split(wrapper))
    }

    /// [`SharedEngine::ingest`] that fails fast with `None` when
    /// another ingest holds the writer lock, so servers can shed load
    /// (HTTP 503) instead of queueing unboundedly.
    pub fn try_ingest(&self, docs: &[String]) -> Option<Result<IngestReport>> {
        self.try_writer()
            .map(|guard| self.ingest_locked(guard, |e| e.ingest_batch(docs)))
    }

    /// Non-blocking [`SharedEngine::ingest_split`].
    pub fn try_ingest_split(&self, wrapper: &str) -> Option<Result<IngestReport>> {
        self.try_writer()
            .map(|guard| self.ingest_locked(guard, |e| e.ingest_batch_split(wrapper)))
    }

    fn try_writer(&self) -> Option<std::sync::MutexGuard<'_, PrixEngine>> {
        match self.writer.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
        }
    }

    fn ingest_locked(
        &self,
        mut engine: std::sync::MutexGuard<'_, PrixEngine>,
        run: impl FnOnce(&mut PrixEngine) -> Result<crate::engine::IngestOutcome>,
    ) -> Result<IngestReport> {
        if self.is_poisoned() {
            return Err(IndexError::Unsupported(
                "engine poisoned by an earlier failed ingest; reopen the database".into(),
            ));
        }
        engine.pool().begin_ingest();
        match run(&mut engine) {
            Ok(outcome) if outcome.accepted.is_empty() => {
                // Nothing validated, nothing written: rejections are
                // read-only, so this abort has no pre-images to
                // restore.
                engine.pool().abort_ingest().map_err(IndexError::Storage)?;
                Ok(IngestReport {
                    accepted: outcome.accepted,
                    rejected: outcome.rejected,
                    epoch: engine.pool().published_epoch(),
                })
            }
            Ok(outcome) => {
                // The save inside `ingest_batch` was the durability
                // point; publishing moves the epoch and swapping the
                // snapshot makes it visible. The new snapshot's pin at
                // the new epoch replaces the old one's role of keeping
                // in-flight pre-images alive.
                let epoch = engine.pool().publish_ingest();
                let snap = Arc::new(EngineSnapshot::capture(&engine));
                debug_assert_eq!(snap.epoch(), epoch);
                *self.current.lock().unwrap_or_else(|e| e.into_inner()) = snap;
                if let Some(hook) = self
                    .on_publish
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .as_ref()
                {
                    hook(epoch);
                }
                Ok(IngestReport {
                    accepted: outcome.accepted,
                    rejected: outcome.rejected,
                    epoch,
                })
            }
            Err(e) => {
                // A document passed validation but failed mid-insert:
                // the in-memory index state is no longer trustworthy.
                // Roll the pool back to the published epoch and refuse
                // further writes; readers keep the last good snapshot.
                self.poisoned.store(true, Ordering::Release);
                let _ = engine.pool().abort_ingest();
                Err(e)
            }
        }
    }
}

/// One tier's `(rp, ep)` index pair as the read paths see it.
type TierRefs<'a> = (Option<&'a PrixIndex>, Option<&'a PrixIndex>);

/// Builds the tier list a query descends: segments in ascending
/// `doc_base` order, then the mutable delta. The mutable tier joins
/// only when it has documents (or when there is nothing else): an
/// empty delta would re-run every trie descent for zero candidates,
/// and — worse — flip the conservative truncation flag for limited
/// queries. Omitting it keeps a freshly bulk-built or just-compacted
/// engine bit-identical to a single-tier engine over the same
/// documents, which is the property the `bulk_equals_incremental`
/// suite pins.
fn collect_tiers<'a>(
    segments: &'a [SegTier],
    rp: Option<&'a PrixIndex>,
    ep: Option<&'a PrixIndex>,
) -> Vec<TierRefs<'a>> {
    let mut tiers: Vec<TierRefs<'a>> = segments
        .iter()
        .map(|t| (t.rp.as_ref(), t.ep.as_ref()))
        .collect();
    let mutable_docs = rp.or(ep).map_or(0, |i| i.doc_count());
    if tiers.is_empty() || mutable_docs > 0 {
        tiers.push((rp, ep));
    }
    tiers
}

/// §5.6's optimizer rule over one tier's index pair: value queries
/// need the EPIndex; value-free queries prefer the RPIndex ("If twig
/// queries have no values, then indexing Regular-Prüfer sequences is
/// recommended"). `force` pins the kind instead (the planner's
/// RP-vs-EP choice, or `--engine prix_rp`/`prix_ep`); forcing the
/// RPIndex for a value query is refused — it cannot answer it — as is
/// forcing an index that was not built.
fn pick_index<'a>(
    rp: Option<&'a PrixIndex>,
    ep: Option<&'a PrixIndex>,
    q: &TwigQuery,
    force: Option<IndexKind>,
) -> Result<&'a PrixIndex> {
    match force {
        Some(IndexKind::Regular) => {
            if q.needs_extended() {
                return Err(IndexError::Unsupported(
                    "value query cannot run on the RPIndex".into(),
                ));
            }
            rp.ok_or_else(|| IndexError::Unsupported("the RPIndex was not built".into()))
        }
        Some(IndexKind::Extended) => {
            ep.ok_or_else(|| IndexError::Unsupported("the EPIndex was not built".into()))
        }
        None => {
            if q.needs_extended() {
                ep.ok_or_else(|| {
                    IndexError::Unsupported(
                        "query requires the EPIndex, which was not built".into(),
                    )
                })
            } else {
                rp.or(ep)
                    .ok_or_else(|| IndexError::Unsupported("no index was built".into()))
            }
        }
    }
}

/// The ordered-query path: one tier loop for limited and unlimited
/// queries. Each tier drains one [`PrixIndex::execute`] stream against
/// the *remaining* budget; once a limit is spent the current stream is
/// abandoned mid-trie and later tiers never run their range queries at
/// all. The result ends in one canonical `(doc, embedding)` sort, so
/// neither the trie order inside a tier nor the tier layout shows in
/// the answer.
fn run_ordered(
    tiers: &[TierRefs<'_>],
    q: &TwigQuery,
    opts: &ExecOpts,
    force: Option<IndexKind>,
    pred: Option<&PredEval>,
) -> Result<QueryOutcome> {
    let scope = IoScope::begin();
    let start = Instant::now();
    let mut matches: Vec<TwigMatch> = Vec::new();
    let mut stats = QueryStats::default();
    let mut index_used = IndexKind::Regular;
    let mut truncated = false;
    for (i, &(rp, ep)) in tiers.iter().enumerate() {
        let remaining = opts.limit.map(|k| k - matches.len());
        if i > 0 && remaining == Some(0) {
            // Budget exhausted with tiers left unexplored: more
            // matches may exist (the same conservative flag a
            // mid-stream stop reports).
            truncated = true;
            break;
        }
        let idx = pick_index(rp, ep, q, force)?;
        index_used = idx.kind();
        let tier_opts = ExecOpts {
            limit: remaining,
            ..*opts
        };
        let mut stream = idx.execute(q, &tier_opts, pred)?;
        while let Some(m) = stream.next_match()? {
            matches.push(m);
        }
        add_filter_counters(&mut stats, &stream.stats());
        if !stream.exhausted() {
            truncated = true;
            break;
        }
    }
    // TwigMatch orders by `(doc, embedding)`: the canonical order.
    matches.sort_unstable();
    stats.matches = matches.len() as u64;
    if let Some(p) = pred {
        stats.valix_probes += p.probe.probes;
        stats.valix_postings += p.probe.postings;
    }
    Ok(QueryOutcome {
        matches,
        stats,
        index_used,
        io: scope.end(),
        elapsed: start.elapsed(),
        truncated,
        engine: EngineId::from_kind(index_used),
    })
}

/// Batch driver: workers pull queries from an atomic cursor and run
/// `exec_one` (which installs the snapshot's pin on its own thread).
fn run_query_batch(
    queries: &[TwigQuery],
    threads: usize,
    exec_one: impl Fn(&TwigQuery) -> Result<QueryOutcome> + Sync,
) -> Result<Vec<QueryOutcome>> {
    let threads = threads.max(1).min(queries.len().max(1));
    if threads == 1 {
        return queries.iter().map(&exec_one).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<QueryOutcome>>>> =
        queries.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let next = &next;
            let slots = &slots;
            let exec_one = &exec_one;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let out = exec_one(&queries[i]);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every query index was claimed by a worker")
        })
        .collect()
}

/// The unordered-query path (§5.7 arrangement loop with the shared
/// limit and base-numbered dedup). With a limit set, arrangements run
/// cheapest-estimated-first: the shared budget fills from the
/// arrangements expected to drain (or fail) fastest. Without a limit the order is left alone — every
/// arrangement runs to completion anyway, and keeping the stock order
/// keeps the concatenated match vector bit-identical to older builds.
fn run_unordered(
    tiers: &[TierRefs<'_>],
    arrangement_limit: usize,
    q: &TwigQuery,
    opts: &ExecOpts,
    planner: &Planner,
    pred: Option<&PredEval>,
) -> Result<QueryOutcome> {
    let mut arrs =
        arrangements(q, arrangement_limit).map_err(|e| IndexError::Unsupported(e.to_string()))?;
    if opts.limit.is_some() {
        let queries: Vec<TwigQuery> = arrs.iter().map(|a| a.query.clone()).collect();
        let order = planner.rank_arrangements(&queries);
        let mut reordered = Vec::with_capacity(arrs.len());
        let mut taken: Vec<Option<_>> = arrs.into_iter().map(Some).collect();
        for i in order {
            reordered.push(taken[i].take().expect("permutation visits each index once"));
        }
        arrs = reordered;
    }
    let scope = IoScope::begin();
    let start = Instant::now();
    let mut stats = QueryStats::default();
    let mut index_used = IndexKind::Regular;
    let mut seen: HashSet<(DocId, Vec<PostNum>)> = HashSet::new();
    let mut matches: Vec<TwigMatch> = Vec::new();
    let mut truncated = false;
    // Dedup across arrangements makes a per-stream limit unsound
    // (k matches from one arrangement may collapse with earlier
    // ones), so each arrangement streams unlimited and the shared
    // countdown is enforced on distinct base-numbered matches. Tiers
    // nest inside the arrangement loop; the final sort re-establishes
    // global order either way.
    let arr_opts = opts.without_limit();
    'arrs: for arr in &arrs {
        // Arrangements strip predicates from their queries (the
        // structural twig is what gets rearranged), so the evaluator is
        // renumbered to each arrangement's postorders instead.
        let arr_pred = pred.map(|p| p.remap(&arr.base_of));
        for &(rp, ep) in tiers {
            let idx = pick_index(rp, ep, &arr.query, None)?;
            index_used = idx.kind();
            let mut stream = idx.execute(&arr.query, &arr_opts, arr_pred.as_ref())?;
            while let Some(m) = stream.next_match()? {
                // Re-map the arrangement's postorder numbering back to
                // the base query's.
                let mut base_emb = vec![0 as PostNum; m.embedding.len()];
                for (arr_q, &img) in m.embedding.iter().enumerate() {
                    let base_q = arr.base_of[arr_q];
                    base_emb[(base_q - 1) as usize] = img;
                }
                if seen.insert((m.doc, base_emb.clone())) {
                    matches.push(TwigMatch {
                        doc: m.doc,
                        embedding: base_emb,
                    });
                    if opts.limit.map_or(false, |k| matches.len() >= k) {
                        let s = stream.stats();
                        add_filter_counters(&mut stats, &s);
                        truncated = true;
                        break 'arrs;
                    }
                }
            }
            let s = stream.stats();
            add_filter_counters(&mut stats, &s);
        }
    }
    matches.sort();
    stats.matches = matches.len() as u64;
    if let Some(p) = pred {
        stats.valix_probes += p.probe.probes;
        stats.valix_postings += p.probe.postings;
    }
    Ok(QueryOutcome {
        matches,
        stats,
        index_used,
        io: scope.end(),
        elapsed: start.elapsed(),
        truncated,
        engine: EngineId::from_kind(index_used),
    })
}

/// Renders the `/explain` lines for a predicate query: one line per
/// predicate plus the valix probe's estimated selectivity. Predicate-
/// free queries never reach this (their explain output is pinned).
fn explain_pred(q: &TwigQuery, pred: &PredEval, syms: &ScratchSyms<'_>) -> String {
    let mut out = String::new();
    for p in q.preds() {
        out.push_str(&format!(
            "predicate: {}{{{}}}\n",
            syms.name(q.tree().label(p.node)),
            p.render_op()
        ));
    }
    match pred.estimate() {
        Some((n, covered)) if covered > 0 => {
            out.push_str(&format!(
                "valix: probe passes {n}/{covered} docs (estimated selectivity {:.2}%)\n",
                (n as f64 / covered as f64) * 100.0
            ));
        }
        Some((n, _)) => {
            out.push_str(&format!("valix: probe passes {n} docs (nothing indexed)\n"));
        }
        None => {
            out.push_str("valix: no probeable predicate (verification only)\n");
        }
    }
    out
}

/// Accumulates one arrangement's pipeline stats into the union's
/// (everything except `matches`, which counts distinct base-numbered
/// embeddings across all arrangements).
fn add_filter_counters(total: &mut QueryStats, s: &QueryStats) {
    total.range_queries += s.range_queries;
    total.nodes_scanned += s.nodes_scanned;
    total.maxgap_pruned += s.maxgap_pruned;
    total.candidates += s.candidates;
    total.refined += s.refined;
    total.filter_time += s.filter_time;
    total.refine_time += s.refine_time;
    total.project_time += s.project_time;
    total.pred_skipped += s.pred_skipped;
    total.pred_rejected += s.pred_rejected;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn docs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn shared() -> SharedEngine {
        let mut coll = Collection::new();
        coll.add_xml("<a><b>hello</b><c/></a>").unwrap();
        let engine = PrixEngine::build(coll, EngineConfig::default()).unwrap();
        SharedEngine::new(engine)
    }

    #[test]
    fn snapshot_is_isolated_from_ingest() {
        let shared = shared();
        let before = shared.snapshot();
        let q = before.parse_query("/a/b").unwrap();
        let first = before.query(&q).unwrap();
        assert_eq!(first.matches.len(), 1);

        let report = shared
            .ingest(&docs(&["<a><b>world</b></a>", "<a><c/></a>"]))
            .unwrap();
        assert_eq!(report.accepted.len(), 2);
        assert!(report.rejected.is_empty());
        assert!(report.epoch > before.epoch());

        // The old snapshot still sees exactly one match...
        let again = before.query(&q).unwrap();
        assert_eq!(again.matches, first.matches);

        // ...while a fresh snapshot sees the new document too.
        let after = shared.snapshot();
        assert_eq!(after.epoch(), report.epoch);
        let q2 = after.parse_query("/a/b").unwrap();
        assert_eq!(after.query(&q2).unwrap().matches.len(), 2);
    }

    #[test]
    fn unknown_label_parses_and_matches_nothing() {
        let shared = shared();
        let snap = shared.snapshot();
        let q = snap.parse_query("/a/never_seen_label").unwrap();
        let out = snap.query(&q).unwrap();
        assert!(out.matches.is_empty());
        // Parsing against the snapshot never grew the frozen table.
        assert!(snap.symbols().lookup("never_seen_label").is_none());
    }

    #[test]
    fn rejected_documents_leave_epoch_unchanged() {
        let shared = shared();
        let before = shared.epoch();
        let report = shared.ingest(&docs(&["<a><b>ok"])).unwrap();
        assert!(report.accepted.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.epoch, before);
        assert_eq!(shared.epoch(), before);
        // The writer is healthy: a good batch still lands.
        let ok = shared.ingest(&docs(&["<a><b>x</b></a>"])).unwrap();
        assert_eq!(ok.accepted.len(), 1);
        assert!(ok.epoch > before);
    }

    #[test]
    fn mixed_batch_accepts_good_rejects_bad() {
        let shared = shared();
        let report = shared
            .ingest(&docs(&["<a><b>x</b></a>", "<broken", "<a><c/></a>"]))
            .unwrap();
        assert_eq!(report.accepted.len(), 2);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, 1);
        let snap = shared.snapshot();
        let q = snap.parse_query("//a").unwrap();
        assert_eq!(snap.query(&q).unwrap().matches.len(), 3);
    }

    #[test]
    fn snapshots_share_the_symbol_table_until_a_write() {
        let mut coll = Collection::new();
        coll.add_xml("<a><b>hello</b><c/></a>").unwrap();
        let mut engine = PrixEngine::build(coll, EngineConfig::default()).unwrap();
        let first = engine.snapshot();
        let second = engine.snapshot();
        assert!(
            Arc::ptr_eq(&first.syms, &second.syms),
            "capture must share the table, not copy it"
        );
        assert!(Arc::ptr_eq(
            &first.syms,
            engine.collection().shared_symbols()
        ));
        // Interning a new label copies the writer's side only.
        engine.parse_query("//a/fresh_label").unwrap();
        let third = engine.snapshot();
        assert!(!Arc::ptr_eq(&first.syms, &third.syms));
        assert!(first.symbols().lookup("fresh_label").is_none());
        assert!(third.symbols().lookup("fresh_label").is_some());
    }

    #[test]
    fn explain_works_on_snapshot_with_unknown_labels() {
        let shared = shared();
        let snap = shared.snapshot();
        let text = snap.explain("/a/unknown_here").unwrap();
        assert!(text.starts_with("index: "));
        assert!(text.contains("unknown_here"));
    }

    #[test]
    fn publish_hook_fires_with_the_new_epoch_only_on_success() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let shared = shared();
        let seen = std::sync::Arc::new(AtomicU64::new(0));
        let seen2 = std::sync::Arc::clone(&seen);
        shared.set_on_publish(move |e| seen2.store(e, Ordering::SeqCst));
        // A fully rejected batch publishes nothing: the hook stays quiet.
        shared.ingest(&docs(&["<broken"])).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        // A successful publish reports exactly the new epoch.
        let report = shared.ingest(&docs(&["<a><b>x</b></a>"])).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), report.epoch);
    }

    #[test]
    fn try_ingest_fails_fast_while_writer_busy() {
        let shared = std::sync::Arc::new(shared());
        // Hold the writer lock from another thread, then confirm
        // try_ingest sheds instead of blocking.
        let guard = shared.writer.lock().unwrap();
        let s2 = std::sync::Arc::clone(&shared);
        let handle = std::thread::spawn(move || s2.try_ingest(&docs(&["<a/>"])).is_none());
        assert!(handle.join().unwrap());
        drop(guard);
        assert!(shared.try_ingest(&docs(&["<a/>"])).unwrap().is_ok());
    }
}
