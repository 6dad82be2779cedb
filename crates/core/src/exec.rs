//! The streaming query executor: a pull-based filter → refine →
//! project pipeline over the PRIX index.
//!
//! The paper's two-phase evaluation (Algorithm 1 subsequence filtering,
//! Algorithm 2 refinement) is decomposed into composable operators:
//!
//! ```text
//!   CandidateCursor ──► RefineStage ──► MatchStream
//!   (explicit-stack      (per-candidate   (composition +
//!    trie descent,        refinement,      limit pushdown,
//!    one candidate        embedding        per-stage stats)
//!    per pull)            projection,
//!                         dedup)
//! ```
//!
//! [`CandidateCursor`] is the recursive `FindSubsequence` turned into
//! an explicit stack of suspended trie levels: each `next()` resumes
//! the depth-first descent exactly where the previous candidate was
//! emitted, so a consumer that stops pulling stops the traversal
//! mid-trie — the remaining range queries, trie-node scans, and docid
//! scans never run. That is what makes `LIMIT` a real pushdown instead
//! of a post-hoc truncation.
//!
//! [`MatchStream`] is the only executor: [`PrixIndex::execute`]
//! returns one, limited or not, and [`RefineStage`] only ever runs
//! inside it, in trie-arrival order. Refinement is order-agnostic — the
//! set of distinct matches does not depend on candidate order — so
//! callers that drain a stream and sort by `(doc, embedding)` get the
//! canonical answer.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use prix_prufer::{embedding, refine_match, RefineCtx};
use prix_xml::{DocId, PostNum, Sym};

use crate::index::{
    project_embedding, DocData, ExecOpts, GapRule, PrixIndex, QueryPlan, QueryStats, Result,
    TwigMatch,
};
use crate::valix::PredEval;

/// One suspended level of the trie descent: the rows its range query
/// produced and how far the cursor has advanced through them.
struct Frame {
    /// `(left, right, level, fine_gap)` rows from the Trie-Symbol scan.
    hits: Vec<(u64, u64, u32, u32)>,
    /// Next row to try.
    next: usize,
}

impl Frame {
    /// The row currently being explored (`next` was advanced past it).
    fn current(&self) -> (u64, u64, u32, u32) {
        self.hits[self.next - 1]
    }
}

/// Algorithm 1 (`FindSubsequence` + Theorem 4 MaxGap pruning) as a
/// resumable cursor. Each [`CandidateCursor::next`] yields one
/// `(doc, positions)` candidate pair in the same depth-first order the
/// recursive formulation emitted them, then suspends.
struct CandidateCursor<'a> {
    idx: &'a PrixIndex,
    lps: Vec<Sym>,
    rules: Vec<Option<GapRule>>,
    use_fine: bool,
    /// `frames[d]` is the suspended range-query state for LPS position
    /// `d`; `positions[..d]` are the levels chosen by frames `0..d`.
    frames: Vec<Frame>,
    positions: Vec<PostNum>,
    /// Documents found at the last LPS position, drained one per pull
    /// (all share the current `positions`).
    pending: VecDeque<DocId>,
    started: bool,
    done: bool,
    stats: QueryStats,
}

impl<'a> CandidateCursor<'a> {
    fn new(idx: &'a PrixIndex, lps: Vec<Sym>, rules: Vec<Option<GapRule>>, use_fine: bool) -> Self {
        let cap = lps.len();
        CandidateCursor {
            idx,
            lps,
            rules,
            use_fine,
            frames: Vec::with_capacity(cap),
            positions: Vec::with_capacity(cap),
            pending: VecDeque::new(),
            started: false,
            done: false,
            stats: QueryStats::default(),
        }
    }

    /// Filter-stage counters accumulated so far (`range_queries`,
    /// `nodes_scanned`, `maxgap_pruned`, `filter_time`).
    fn stats(&self) -> QueryStats {
        self.stats
    }

    /// `true` once the whole trie descent has been drained. A cursor
    /// abandoned mid-descent (limit hit) never becomes exhausted.
    fn exhausted(&self) -> bool {
        self.done
    }

    /// Pulls the next `(doc, positions)` candidate, resuming the
    /// descent where the previous pull suspended.
    fn next(&mut self) -> Result<Option<(DocId, &[PostNum])>> {
        let t0 = Instant::now();
        let res = self.advance();
        self.stats.filter_time += t0.elapsed();
        match res? {
            Some(doc) => Ok(Some((doc, &self.positions))),
            None => Ok(None),
        }
    }

    fn advance(&mut self) -> Result<Option<DocId>> {
        if self.done {
            return Ok(None);
        }
        if let Some(doc) = self.pending.pop_front() {
            return Ok(Some(doc));
        }
        if !self.started {
            self.started = true;
            // The virtual root's scope is (0, u64::MAX].
            self.push_frame(0, 0, u64::MAX)?;
        }
        loop {
            let depth = match self.frames.len().checked_sub(1) {
                Some(d) => d,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            };
            // Invariant: while trying frame `depth`'s rows, positions
            // holds exactly the levels chosen by the shallower frames.
            self.positions.truncate(depth);
            let (left, right, level) = {
                let frame = &mut self.frames[depth];
                if frame.next >= frame.hits.len() {
                    self.frames.pop();
                    continue;
                }
                let h = frame.hits[frame.next];
                frame.next += 1;
                (h.0, h.1, h.2)
            };
            // MaxGap pruning (Theorem 4): the parent frame's current
            // row carries the per-trie-node fine gap (§5.4).
            if depth > 0 {
                if let Some(rule) = self.rules[depth - 1] {
                    let prev_fine = self.frames[depth - 1].current().3;
                    let mg = if self.use_fine {
                        rule.global.min(prev_fine as u64)
                    } else {
                        rule.global
                    };
                    let prev = self.positions[depth - 1];
                    let dist = (level as u64).saturating_sub(prev as u64);
                    if dist > mg + rule.extra {
                        self.stats.maxgap_pruned += 1;
                        continue;
                    }
                }
            }
            self.positions.push(level);
            if depth + 1 == self.lps.len() {
                self.idx.scan_docids(left, right, &mut self.pending)?;
                if let Some(doc) = self.pending.pop_front() {
                    return Ok(Some(doc));
                }
                // No document ends on this trie node: keep descending.
            } else {
                self.push_frame(depth + 1, left, right)?;
            }
        }
    }

    fn push_frame(&mut self, depth: usize, ql: u64, qr: u64) -> Result<()> {
        self.stats.range_queries += 1;
        let hits = self.idx.scan_tag_range(self.lps[depth], ql, qr)?;
        self.stats.nodes_scanned += hits.len() as u64;
        self.frames.push(Frame { hits, next: 0 });
        Ok(())
    }
}

/// Algorithm 2 refinement + embedding projection + dedup as a
/// per-candidate stage. Order-agnostic: feeding it candidates in any
/// order yields the same set of distinct matches (first occurrence
/// wins). The per-document [`DocData`] cache survives across
/// candidates, and dedup hashes per-document embedding sets so a
/// duplicate costs a lookup, not a clone.
struct RefineStage<'a> {
    idx: &'a PrixIndex,
    cache: HashMap<DocId, DocData>,
    seen: HashMap<DocId, HashSet<Vec<PostNum>>>,
    /// Load leaf records even when the plan's leaf check is skipped —
    /// positional predicate verification needs them.
    force_leaves: bool,
    /// Candidates surviving all refinement phases.
    refined: u64,
    refine_time: Duration,
    project_time: Duration,
}

impl<'a> RefineStage<'a> {
    fn new(idx: &'a PrixIndex, force_leaves: bool) -> Self {
        RefineStage {
            idx,
            cache: HashMap::new(),
            seen: HashMap::new(),
            force_leaves,
            refined: 0,
            refine_time: Duration::default(),
            project_time: Duration::default(),
        }
    }

    /// The cached per-document data for a document already processed.
    fn doc_data(&self, doc: DocId) -> Option<&DocData> {
        self.cache.get(&doc)
    }

    /// Runs one candidate through refinement, projection, the
    /// absolute-root check, and dedup. Returns the match if the
    /// candidate survives everything and is new.
    fn process(
        &mut self,
        plan: &QueryPlan,
        absolute: bool,
        doc: DocId,
        positions: &[PostNum],
    ) -> Result<Option<TwigMatch>> {
        let t0 = Instant::now();
        let data = match self.cache.entry(doc) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                self.idx
                    .load_doc(doc, !plan.skip_leaf || self.force_leaves)?,
            ),
        };
        let ctx = RefineCtx {
            doc_nps: &data.nps,
            query_nps: &plan.seq.nps,
            positions,
            edges: &plan.edges,
            query_leaves: &plan.leaves,
            doc_leaves: &data.leaves,
            doc_lps: &data.lps,
            skip_leaf_check: plan.skip_leaf,
        };
        let ok = refine_match(&ctx);
        self.refine_time += t0.elapsed();
        if !ok {
            return Ok(None);
        }
        self.refined += 1;
        let t1 = Instant::now();
        let img = embedding(&plan.seq.nps, positions, &data.nps);
        let out = (|| {
            let base = project_embedding(plan, data, &img)?;
            if absolute && base[base.len() - 1] != data.n_orig {
                return None;
            }
            let set = self.seen.entry(doc).or_default();
            if set.contains(&base) {
                return None;
            }
            set.insert(base.clone());
            Some(TwigMatch {
                doc,
                embedding: base,
            })
        })();
        self.project_time += t1.elapsed();
        Ok(out)
    }
}

/// The composed streaming pipeline behind [`PrixIndex::execute`]:
/// cursor → refine → project, with limit pushdown. Matches arrive in
/// trie-traversal order.
pub struct MatchStream<'a> {
    cursor: CandidateCursor<'a>,
    stage: RefineStage<'a>,
    plan: QueryPlan,
    absolute: bool,
    limit: Option<usize>,
    /// Value-predicate evaluator: documents failing its pre-filter are
    /// skipped before refinement, and refined matches must pass its
    /// positional verification before being emitted.
    pred: Option<&'a PredEval>,
    candidates: u64,
    emitted: u64,
    pred_skipped: u64,
    pred_rejected: u64,
    halted: bool,
}

impl<'a> MatchStream<'a> {
    pub(crate) fn new(
        idx: &'a PrixIndex,
        plan: QueryPlan,
        absolute: bool,
        opts: &ExecOpts,
        pred: Option<&'a PredEval>,
    ) -> Self {
        let rules = if opts.use_maxgap {
            idx.gap_rules(&plan)
        } else {
            vec![None; plan.seq.len().saturating_sub(1)]
        };
        let cursor = CandidateCursor::new(idx, plan.seq.lps.clone(), rules, opts.use_fine_maxgap);
        MatchStream {
            cursor,
            stage: RefineStage::new(idx, pred.is_some()),
            plan,
            absolute,
            limit: opts.limit,
            pred,
            candidates: 0,
            emitted: 0,
            pred_skipped: 0,
            pred_rejected: 0,
            halted: false,
        }
    }

    /// Pulls the next distinct match. Returns `None` once the trie is
    /// drained or the limit is reached; either way, no further index
    /// work happens after that.
    pub fn next_match(&mut self) -> Result<Option<TwigMatch>> {
        if self.halted {
            return Ok(None);
        }
        if let Some(k) = self.limit {
            if self.emitted as usize >= k {
                self.halted = true;
                return Ok(None);
            }
        }
        loop {
            let (doc, positions) = match self.cursor.next()? {
                Some(c) => c,
                None => {
                    self.halted = true;
                    return Ok(None);
                }
            };
            // Predicate pre-filter: a document the valix probe ruled
            // out cannot pass positional verification below, so its
            // candidates never reach refinement (or load a record).
            if let Some(p) = self.pred {
                if !p.allows(doc) {
                    self.pred_skipped += 1;
                    continue;
                }
            }
            self.candidates += 1;
            if let Some(m) = self
                .stage
                .process(&self.plan, self.absolute, doc, positions)?
            {
                if let Some(p) = self.pred {
                    let data = self
                        .stage
                        .doc_data(doc)
                        .expect("process() cached this document");
                    if !p.matches(data, &m.embedding) {
                        self.pred_rejected += 1;
                        continue;
                    }
                }
                self.emitted += 1;
                if let Some(k) = self.limit {
                    if self.emitted as usize >= k {
                        self.halted = true;
                    }
                }
                return Ok(Some(m));
            }
        }
    }

    /// `true` once the underlying cursor drained the whole trie
    /// descent. A stream stopped by its limit (or dropped early) is not
    /// exhausted — `!exhausted()` after the stream ends is the
    /// conservative "truncated" signal (no probing for a further match
    /// is performed).
    pub fn exhausted(&self) -> bool {
        self.cursor.exhausted()
    }

    /// Merged pipeline statistics: the cursor's filter counters and
    /// timing, the refine stage's counters and timings, and the
    /// candidate / match counts observed by the stream so far.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.cursor.stats();
        s.candidates = self.candidates;
        s.refined = self.stage.refined;
        s.refine_time = self.stage.refine_time;
        s.project_time = self.stage.project_time;
        s.matches = self.emitted;
        s.pred_skipped = self.pred_skipped;
        s.pred_rejected = self.pred_rejected;
        s
    }
}
