//! Cost-based multi-engine query planning.
//!
//! The paper's evaluation (§6) is a matrix: PRIX vs ViST vs
//! TwigStack/TwigStackXB across query shapes. This module turns that
//! matrix into an optimizer. Every engine sits behind the
//! [`QueryEngine`] trait; a [`Planner`] scores the alternatives
//! (engine × RP-vs-EP × MaxGap on/off, plus arrangement order for
//! unordered queries) from collected statistics and a [`Router`]
//! executes the winner.
//!
//! Statistics come from three places:
//!
//! * **tag frequencies** — per-label node counts collected at
//!   build/ingest time from the collection,
//! * **trie fanout** — node/path/sequence counts from the RP index's
//!   build stats (how much prefix sharing the virtual trie achieves,
//!   which is what subsequence filtering actually scans),
//! * **observed stage clocks** — an EWMA of per-query wall time keyed
//!   by query *shape* (node/leaf/value/descendant-edge counts),
//!   blended into the analytic model once samples exist.
//!
//! Stats are persisted in the engine catalog (version 3) and rebuilt
//! from it on reopen, so a reopened database plans like the one that
//! was saved.
//!
//! ## Result compatibility
//!
//! Routed results must be indistinguishable from forced-PRIX results.
//! Two mechanisms guarantee that:
//!
//! 1. every outcome is canonical — matches sorted by `(doc,
//!    embedding)`: PRIX reads sort once at the end of their tier loop,
//!    and the router sorts alternative engines' outcomes — so engines
//!    with different enumeration orders produce identical payloads,
//! 2. a non-PRIX engine is only *eligible* when PRIX's embedding
//!    semantics are exact for the query ([`prix_embedding_exact`]):
//!    for `//` edges meeting at a branching node, PRIX's
//!    frequency-consistency rule (Definition 4) pins the branch image
//!    to one common ancestor and deliberately enumerates fewer
//!    embeddings than a per-ancestor oracle, so such queries stay on
//!    PRIX.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use prix_prufer::EdgeKind;
use prix_xml::{Collection, NodeKind, Sym};

use crate::engine::QueryOutcome;
use crate::index::{ExecOpts, IndexError, IndexKind, Result};
use crate::query::TwigQuery;
use crate::snapshot::EngineSnapshot;

/// Every engine the planner can route to. `PrixRp`/`PrixEp`
/// distinguish the paper's two index flavors (§5.6) because they are
/// separate physical structures with different scan costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineId {
    /// PRIX over the Regular-Prüfer (structure-only) index.
    PrixRp,
    /// PRIX over the Extended-Prüfer (value-carrying) index.
    PrixEp,
    /// ViST structure-encoded sequence matching + verification.
    Vist,
    /// Holistic twig join over region-encoded streams.
    TwigStack,
    /// TwigStack with XB-tree skipping.
    TwigStackXb,
}

impl EngineId {
    /// All engines, in stable exposition order (metrics, explain).
    pub const ALL: [EngineId; 5] = [
        EngineId::PrixRp,
        EngineId::PrixEp,
        EngineId::Vist,
        EngineId::TwigStack,
        EngineId::TwigStackXb,
    ];

    /// The label used in metrics and explain output.
    pub fn label(self) -> &'static str {
        match self {
            EngineId::PrixRp => "prix_rp",
            EngineId::PrixEp => "prix_ep",
            EngineId::Vist => "vist",
            EngineId::TwigStack => "twigstack",
            EngineId::TwigStackXb => "twigstackxb",
        }
    }

    /// Stable index into per-engine arrays (EWMA table, metrics).
    pub fn index(self) -> usize {
        EngineId::ALL.iter().position(|e| *e == self).unwrap()
    }

    /// The PRIX engine id for a concrete index kind.
    pub fn from_kind(kind: IndexKind) -> EngineId {
        match kind {
            IndexKind::Regular => EngineId::PrixRp,
            IndexKind::Extended => EngineId::PrixEp,
        }
    }

    /// Whether this is one of the two PRIX index engines.
    pub fn is_prix(self) -> bool {
        matches!(self, EngineId::PrixRp | EngineId::PrixEp)
    }
}

/// What `--engine` / `?engine=` accepts: `prix` is the classic §5.6
/// RP-vs-EP routing, the rest force one alternative engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// Classic PRIX routing (EP for value queries, else RP).
    Prix,
    /// One specific engine, planner bypassed.
    Forced(EngineId),
}

impl EngineChoice {
    /// Parses a `--engine` value. Accepted: `prix`, `prix_rp`,
    /// `prix_ep`, `vist`, `twigstack`, `twigstackxb`.
    pub fn parse(s: &str) -> Option<EngineChoice> {
        match s {
            "prix" => Some(EngineChoice::Prix),
            "prix_rp" | "prix-rp" => Some(EngineChoice::Forced(EngineId::PrixRp)),
            "prix_ep" | "prix-ep" => Some(EngineChoice::Forced(EngineId::PrixEp)),
            "vist" => Some(EngineChoice::Forced(EngineId::Vist)),
            "twigstack" => Some(EngineChoice::Forced(EngineId::TwigStack)),
            "twigstackxb" => Some(EngineChoice::Forced(EngineId::TwigStackXb)),
            _ => None,
        }
    }
}

/// One engine behind the planner. Implementations adapt ViST and
/// TwigStack (which live in their own crates, downstream of this one)
/// to the shared execution contract: same query type, same options,
/// same outcome — so routed results are directly comparable.
pub trait QueryEngine: Send + Sync {
    /// Which engine this is.
    fn id(&self) -> EngineId;
    /// Can this engine answer `q` at all?
    fn supports(&self, q: &TwigQuery) -> bool;
    /// Does a limit stop work early (true) or merely truncate the
    /// result (false)?
    fn supports_limit_pushdown(&self) -> bool {
        false
    }
    /// Runs the query. Implementations fill [`QueryOutcome::engine`]
    /// with their own id and report whatever counters map onto
    /// [`crate::index::QueryStats`].
    fn execute(&self, q: &TwigQuery, opts: &ExecOpts) -> Result<QueryOutcome>;
}

/// Supplies (usually lazily-built) alternative engines to the router.
/// Building a ViST or TwigStack substrate over a large collection is
/// expensive, so providers construct them on first use and cache.
pub trait AltProvider: Sync {
    /// Can this provider construct alternative engines at all? The
    /// planner only lists ViST/TwigStack alternatives when true.
    fn available(&self) -> bool {
        true
    }
    /// Returns the adapter for `id`, building it if necessary.
    /// `id` is never `PrixRp`/`PrixEp`.
    fn alt_engine(&self, id: EngineId) -> Result<Arc<dyn QueryEngine>>;
}

/// An [`AltProvider`] with no alternative engines (PRIX-only routing).
pub struct NoAlts;

impl AltProvider for NoAlts {
    fn available(&self) -> bool {
        false
    }
    fn alt_engine(&self, id: EngineId) -> Result<Arc<dyn QueryEngine>> {
        Err(IndexError::Unsupported(format!(
            "engine {} is not available here",
            id.label()
        )))
    }
}

/// Which engines the planner may consider.
#[derive(Debug, Clone, Copy)]
pub struct EngineCaps {
    /// RP index present.
    pub rp: bool,
    /// EP index present.
    pub ep: bool,
    /// ViST adapter constructible.
    pub vist: bool,
    /// TwigStack/TwigStackXB adapter constructible.
    pub twigstack: bool,
}

/// The query-shape key the EWMA table uses: queries with the same
/// node/leaf/value/descendant-edge counts are assumed to cost alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryShape {
    /// Query tree nodes.
    pub nodes: u32,
    /// Leaf nodes.
    pub leaves: u32,
    /// Value-predicate (text) nodes.
    pub values: u32,
    /// `//` edges.
    pub desc_edges: u32,
}

impl QueryShape {
    /// Computes the shape of a query.
    pub fn of(q: &TwigQuery) -> QueryShape {
        let tree = q.tree();
        let mut leaves = 0u32;
        let mut values = 0u32;
        for id in tree.nodes() {
            if tree.children(id).is_empty() {
                leaves += 1;
            }
            if tree.kind(id) == NodeKind::Text {
                values += 1;
            }
        }
        let desc_edges = q
            .edges_by_post()
            .iter()
            .filter(|e| matches!(e, EdgeKind::Descendant))
            .count() as u32;
        QueryShape {
            nodes: tree.len() as u32,
            leaves,
            values,
            desc_edges,
        }
    }

    /// Packs the shape into the persistent EWMA key (each component
    /// saturates at 63).
    pub fn key(self) -> u32 {
        (self.nodes.min(63) << 18)
            | (self.leaves.min(63) << 12)
            | (self.values.min(63) << 6)
            | self.desc_edges.min(63)
    }
}

impl std::fmt::Display for QueryShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n{}.l{}.v{}.d{}",
            self.nodes, self.leaves, self.values, self.desc_edges
        )
    }
}

/// Is PRIX's embedding enumeration exact (identical to the naive
/// per-ancestor oracle) for this query? False when a `//` edge hangs
/// off a branching query node — there PRIX's frequency-consistency
/// rule pins the branch image and enumerates fewer embeddings, so a
/// non-PRIX engine would return a (correct but) larger match set.
pub fn prix_embedding_exact(q: &TwigQuery) -> bool {
    let tree = q.tree();
    let edges = q.edges_by_post();
    for id in tree.nodes() {
        let kids = tree.children(id);
        if kids.len() < 2 {
            continue;
        }
        for &c in kids {
            let idx = (tree.postorder(c) - 1) as usize;
            if matches!(edges[idx], EdgeKind::Descendant) {
                return false;
            }
        }
    }
    true
}

/// Sorts matches by `(doc, embedding)` — the canonical order every
/// PRIX read already returns. The router applies it to alternative
/// engines' outcomes so their enumeration orders cannot leak into the
/// payload.
pub fn canonicalize(outcome: &mut QueryOutcome) {
    outcome.matches.sort_unstable();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Caps keeping the persistent encoding inside the 4 KiB catalog page:
/// the `TAG_CAP` most frequent tags and `EWMA_CAP` most recent shapes.
const TAG_CAP: usize = 128;
const EWMA_CAP: usize = 64;
const STATS_MAGIC: &[u8; 4] = b"PLN1";
/// EWMA smoothing factor for observed query times.
const EWMA_ALPHA: f64 = 0.4;
/// Observed time this many times over the estimate counts as a
/// misprediction.
const MISPREDICT_FACTOR: f64 = 4.0;

/// The planner's statistics: collection-level tag frequencies, trie
/// shape from the RP index build, and the per-shape observed-time
/// EWMA table. Everything here survives a save/reopen cycle via the
/// catalog (version 3).
#[derive(Debug, Clone, Default)]
pub struct PlannerStats {
    /// Per-label node counts across the collection.
    pub tag_freq: HashMap<Sym, u64>,
    /// Total nodes across the collection.
    pub total_nodes: u64,
    /// Total value (text) nodes.
    pub total_values: u64,
    /// Documents indexed.
    pub doc_count: u64,
    /// Virtual-trie nodes in the RP index (prefix-shared).
    pub trie_nodes: u64,
    /// Distinct root-to-leaf trie paths.
    pub trie_paths: u64,
    /// Sequences inserted (≥ paths when documents share sequences).
    pub seq_count: u64,
    /// `shape key -> per-engine EWMA of observed wall µs` (0 = no
    /// sample yet). Indexed by [`EngineId::index`].
    pub ewma_us: HashMap<u32, [f64; 5]>,
    /// Recency order of EWMA keys, least-recently-observed first (the
    /// LRU eviction queue keeping the table inside `EWMA_CAP`).
    ewma_order: Vec<u32>,
}

impl PlannerStats {
    /// Folds a collection's label counts into the stats (build and
    /// ingest call this with whatever documents they added).
    pub fn merge_collection(&mut self, c: &Collection) {
        for (_, tree) in c.iter() {
            self.merge_tree(tree);
        }
    }

    /// Folds one document tree into the stats.
    pub fn merge_tree(&mut self, tree: &prix_xml::XmlTree) {
        self.doc_count += 1;
        for id in tree.nodes() {
            *self.tag_freq.entry(tree.label(id)).or_insert(0) += 1;
            self.total_nodes += 1;
            if tree.kind(id) == NodeKind::Text {
                self.total_values += 1;
            }
        }
    }

    /// Installs the trie-shape numbers from the RP index build stats.
    pub fn set_trie_shape(&mut self, trie_nodes: u64, trie_paths: u64, seq_count: u64) {
        self.trie_nodes = trie_nodes;
        self.trie_paths = trie_paths;
        self.seq_count = seq_count;
    }

    /// Estimated node count for a label. Labels outside the retained
    /// top-[`TAG_CAP`] fall back to a small default: anything big
    /// enough to matter is retained, so the long tail is rare.
    pub fn freq(&self, sym: Sym) -> f64 {
        match self.tag_freq.get(&sym) {
            Some(&f) => f as f64,
            None => {
                let distinct = self.tag_freq.len().max(1) as f64;
                (self.total_nodes as f64 / (distinct * 4.0)).max(1.0)
            }
        }
    }

    /// How many documents' worth of samples the EWMA table holds.
    pub fn ewma_samples(&self) -> usize {
        self.ewma_us.len()
    }

    fn observe(&mut self, shape: QueryShape, engine: EngineId, observed_us: f64) {
        let key = shape.key();
        // LRU: a re-observed shape moves to the back of the queue, so
        // eviction removes the shape least recently *seen*, not the one
        // first inserted — hot shapes survive cold churn.
        if let Some(pos) = self.ewma_order.iter().position(|&k| k == key) {
            self.ewma_order.remove(pos);
        } else if self.ewma_order.len() >= EWMA_CAP {
            let evict = self.ewma_order.remove(0);
            self.ewma_us.remove(&evict);
        }
        self.ewma_order.push(key);
        let row = self.ewma_us.entry(key).or_insert([0.0; 5]);
        let slot = &mut row[engine.index()];
        *slot = if *slot == 0.0 {
            observed_us
        } else {
            (1.0 - EWMA_ALPHA) * *slot + EWMA_ALPHA * observed_us
        };
    }

    /// Serializes into the bounded catalog representation: top-frequency
    /// tags and the EWMA table, both capped.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(STATS_MAGIC);
        for v in [
            self.total_nodes,
            self.total_values,
            self.doc_count,
            self.trie_nodes,
            self.trie_paths,
            self.seq_count,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut tags: Vec<(Sym, u64)> = self.tag_freq.iter().map(|(&s, &f)| (s, f)).collect();
        tags.sort_unstable_by(|a, b| (b.1, a.0 .0).cmp(&(a.1, b.0 .0)));
        tags.truncate(TAG_CAP);
        out.extend_from_slice(&(tags.len() as u32).to_le_bytes());
        for (s, f) in &tags {
            out.extend_from_slice(&s.0.to_le_bytes());
            out.extend_from_slice(&f.to_le_bytes());
        }
        let mut rows: Vec<u32> = self.ewma_order.clone();
        rows.truncate(EWMA_CAP);
        out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for key in rows {
            out.extend_from_slice(&key.to_le_bytes());
            let row = self.ewma_us.get(&key).copied().unwrap_or([0.0; 5]);
            for v in row {
                out.extend_from_slice(&(v.round().min(u32::MAX as f64) as u32).to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`PlannerStats::encode`]. Returns `None` on any
    /// malformed input (a legacy catalog simply starts empty).
    pub fn decode(bytes: &[u8]) -> Option<PlannerStats> {
        let mut r = bytes;
        let mut take = |n: usize| -> Option<&[u8]> {
            if r.len() < n {
                return None;
            }
            let (head, tail) = r.split_at(n);
            r = tail;
            Some(head)
        };
        if take(4)? != STATS_MAGIC {
            return None;
        }
        let mut u64s = [0u64; 6];
        for v in &mut u64s {
            *v = u64::from_le_bytes(take(8)?.try_into().ok()?);
        }
        let mut stats = PlannerStats {
            total_nodes: u64s[0],
            total_values: u64s[1],
            doc_count: u64s[2],
            trie_nodes: u64s[3],
            trie_paths: u64s[4],
            seq_count: u64s[5],
            ..PlannerStats::default()
        };
        let ntags = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        if ntags > TAG_CAP {
            return None;
        }
        for _ in 0..ntags {
            let s = Sym(u32::from_le_bytes(take(4)?.try_into().ok()?));
            let f = u64::from_le_bytes(take(8)?.try_into().ok()?);
            stats.tag_freq.insert(s, f);
        }
        let nrows = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        if nrows > EWMA_CAP {
            return None;
        }
        for _ in 0..nrows {
            let key = u32::from_le_bytes(take(4)?.try_into().ok()?);
            let mut row = [0.0f64; 5];
            for v in &mut row {
                *v = u32::from_le_bytes(take(4)?.try_into().ok()?) as f64;
            }
            stats.ewma_us.insert(key, row);
            stats.ewma_order.push(key);
        }
        Some(stats)
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// One scored alternative in a [`PlanReport`].
#[derive(Debug, Clone)]
pub struct PlanAlt {
    /// The engine.
    pub engine: EngineId,
    /// MaxGap pruning on (only meaningful for PRIX alternatives).
    pub maxgap: bool,
    /// Estimated cost in µs (model blended with the shape EWMA).
    pub cost_us: f64,
    /// May the router actually pick this?
    pub eligible: bool,
    /// Why not, when `eligible` is false.
    pub note: &'static str,
}

/// The planner's decision for one query: the ranked alternatives, the
/// chosen one, and everything `/explain` renders.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Shape the cost model keyed on.
    pub shape: QueryShape,
    /// All scored alternatives, cheapest first.
    pub alternatives: Vec<PlanAlt>,
    /// The engine the router will run.
    pub chosen: EngineId,
    /// MaxGap setting for the chosen engine.
    pub maxgap: bool,
    /// Estimated cost of the chosen alternative (µs).
    pub cost_us: f64,
    /// `true` when `--engine` bypassed the cost comparison.
    pub forced: bool,
    /// PRIX embedding semantics exact for this query (gate for
    /// non-PRIX eligibility)?
    pub prix_exact: bool,
    /// EWMA rows consulted (0 = pure analytic model).
    pub ewma_samples: usize,
}

impl PlanReport {
    /// Renders the plan section of `explain` output. The first line is
    /// pinned by tests; the `alt` lines carry the per-alternative cost
    /// estimates the ISSUE asks for.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "planner: engine={} maxgap={} cost={:.1}us {} shape={} ewma_rows={}\n",
            self.chosen.label(),
            if self.maxgap { "on" } else { "off" },
            self.cost_us,
            if self.forced { "(forced)" } else { "(routed)" },
            self.shape,
            self.ewma_samples,
        ));
        for alt in &self.alternatives {
            let gap = if alt.engine.is_prix() {
                if alt.maxgap {
                    " maxgap=on "
                } else {
                    " maxgap=off"
                }
            } else {
                "           "
            };
            out.push_str(&format!(
                "  alt {:<11}{} cost={:>10.1}us{}{}\n",
                alt.engine.label(),
                gap,
                alt.cost_us,
                if alt.eligible { "" } else { "  ineligible" },
                if alt.note.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", alt.note)
                },
            ));
        }
        out
    }
}

/// Per-element work constants, in µs, calibrated roughly against the
/// in-repo engines' benches. Absolute values matter less than ratios:
/// the planner compares alternatives, it does not predict wall time.
mod cost {
    /// PRIX trie-position scan + gap machinery, per position.
    pub const PRIX_ELEM: f64 = 0.08;
    /// Fraction of filter work MaxGap pruning removes when every
    /// adjacent pair is bounded.
    pub const MAXGAP_SAVINGS: f64 = 0.65;
    /// Fixed PRIX plan/rule-derivation overhead.
    pub const PRIX_FIXED: f64 = 30.0;
    /// TwigStack stream scan, per element.
    pub const TS_ELEM: f64 = 0.05;
    /// TwigStack fixed overhead.
    pub const TS_FIXED: f64 = 40.0;
    /// TwigStackXB per-element (drilldowns cost more than scans).
    pub const XB_ELEM: f64 = 0.07;
    /// TwigStackXB fixed overhead (cursor setup per stream).
    pub const XB_FIXED: f64 = 60.0;
    /// ViST per-element: recursive range descent plus the verification
    /// pass it needs for exact answers.
    pub const VIST_ELEM: f64 = 0.2;
    /// ViST fixed overhead: query encoding plus at least one descent
    /// through the D-Ancestor/S-Ancestor B⁺-trees per pattern step.
    pub const VIST_FIXED: f64 = 120.0;
    /// ViST wildcard blow-up per `//` step in the encoded pattern.
    pub const VIST_DESC_FACTOR: f64 = 3.0;
    /// Blend weight of the analytic model when an EWMA sample exists.
    pub const MODEL_WEIGHT: f64 = 0.4;
}

fn query_syms(q: &TwigQuery) -> Vec<Sym> {
    let tree = q.tree();
    tree.nodes().map(|id| tree.label(id)).collect()
}

/// The shared planner: statistics plus the cost model. One instance
/// per engine, shared (via `Arc`) with every snapshot so observations
/// from served queries feed back into later plans.
#[derive(Debug, Default)]
pub struct Planner {
    stats: Mutex<PlannerStats>,
}

impl Planner {
    /// A planner starting from the given statistics (decoded from a
    /// catalog, or freshly collected at build time).
    pub fn new(stats: PlannerStats) -> Planner {
        Planner {
            stats: Mutex::new(stats),
        }
    }

    /// Runs `f` over the stats table (collection/build updates).
    pub fn update<R>(&self, f: impl FnOnce(&mut PlannerStats) -> R) -> R {
        f(&mut self.stats.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Snapshot of the stats for persistence.
    pub fn encode(&self) -> Vec<u8> {
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .encode()
    }

    /// Scores every alternative for `q` and picks one. `forced`
    /// bypasses the comparison but still produces the full report.
    pub fn decide(
        &self,
        q: &TwigQuery,
        caps: EngineCaps,
        opts: &ExecOpts,
        forced: Option<EngineChoice>,
    ) -> Result<PlanReport> {
        let stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let shape = QueryShape::of(q);
        let exact = prix_embedding_exact(q);
        let syms = query_syms(q);
        let needs_ep = q.needs_extended();

        // Per-label frequency estimates, and the base sums the models
        // share.
        let freqs: Vec<f64> = syms.iter().map(|&s| stats.freq(s)).collect();
        let sum_f: f64 = freqs.iter().sum();
        let min_f = freqs.iter().copied().fold(f64::INFINITY, f64::min);
        let min_f = if min_f.is_finite() { min_f } else { 1.0 };
        // Prefix sharing: the trie scans shared positions, not raw
        // nodes. `sharing` >= 1; 1 = no sharing.
        let sharing = if stats.trie_nodes > 0 {
            (stats.seq_count as f64 * shape.nodes.max(1) as f64 / stats.trie_nodes as f64).max(1.0)
        } else {
            1.0
        };
        let edges = (shape.nodes.saturating_sub(1)).max(1) as f64;
        let bounded_frac = 1.0 - (shape.desc_edges as f64 / edges).min(1.0);
        let ep_factor = if stats.total_nodes > 0 {
            (stats.total_nodes + 2 * stats.total_values) as f64 / stats.total_nodes as f64
        } else {
            1.5
        };

        let prix_base = cost::PRIX_ELEM * sum_f / sharing;
        let prix_on = prix_base * (1.0 - cost::MAXGAP_SAVINGS * bounded_frac) + cost::PRIX_FIXED;
        let prix_off = prix_base + cost::PRIX_FIXED;
        let ts = cost::TS_ELEM * sum_f + cost::TS_FIXED;
        let xb_elems: f64 = freqs
            .iter()
            .map(|&f| f.min(min_f * ((f / min_f + 2.0).log2())))
            .sum();
        let xb = cost::XB_ELEM * xb_elems + cost::XB_FIXED;
        let vist =
            cost::VIST_ELEM * sum_f * cost::VIST_DESC_FACTOR.powi(shape.desc_edges.min(6) as i32)
                + stats.doc_count as f64 * 0.5
                + cost::VIST_FIXED;

        let ewma = stats.ewma_us.get(&shape.key()).copied();
        let blend = |engine: EngineId, model: f64| -> f64 {
            match ewma.map(|row| row[engine.index()]) {
                Some(obs) if obs > 0.0 => {
                    cost::MODEL_WEIGHT * model + (1.0 - cost::MODEL_WEIGHT) * obs
                }
                _ => model,
            }
        };

        // Alternative engines cannot push a limit into their joins, the
        // arrangement (unordered) mode is PRIX machinery, and value
        // predicates are evaluated by the PRIX refinement stage, so all
        // three stay on PRIX unless explicitly forced.
        let has_preds = !q.preds().is_empty();
        let alt_note: &'static str = if has_preds {
            "cannot evaluate value predicates"
        } else if !exact {
            "PRIX enumerates fewer embeddings for // at a branch"
        } else if opts.limit.is_some() {
            "no limit pushdown"
        } else {
            ""
        };
        let alt_ok = exact && opts.limit.is_none() && !has_preds;

        let mut alts = Vec::new();
        if caps.rp && !needs_ep {
            alts.push(PlanAlt {
                engine: EngineId::PrixRp,
                maxgap: true,
                cost_us: blend(EngineId::PrixRp, prix_on),
                eligible: true,
                note: "",
            });
            alts.push(PlanAlt {
                engine: EngineId::PrixRp,
                maxgap: false,
                cost_us: blend(EngineId::PrixRp, prix_off),
                eligible: true,
                note: "",
            });
        }
        if caps.ep {
            alts.push(PlanAlt {
                engine: EngineId::PrixEp,
                maxgap: true,
                cost_us: blend(EngineId::PrixEp, prix_on * ep_factor),
                eligible: true,
                note: "",
            });
            alts.push(PlanAlt {
                engine: EngineId::PrixEp,
                maxgap: false,
                cost_us: blend(EngineId::PrixEp, prix_off * ep_factor),
                eligible: true,
                note: "",
            });
        }
        if caps.vist {
            alts.push(PlanAlt {
                engine: EngineId::Vist,
                maxgap: false,
                cost_us: blend(EngineId::Vist, vist),
                eligible: alt_ok,
                note: alt_note,
            });
        }
        if caps.twigstack {
            alts.push(PlanAlt {
                engine: EngineId::TwigStack,
                maxgap: false,
                cost_us: blend(EngineId::TwigStack, ts),
                eligible: alt_ok,
                note: alt_note,
            });
            alts.push(PlanAlt {
                engine: EngineId::TwigStackXb,
                maxgap: false,
                cost_us: blend(EngineId::TwigStackXb, xb),
                eligible: alt_ok,
                note: alt_note,
            });
        }
        drop(stats);
        if alts.is_empty() {
            return Err(IndexError::Unsupported(
                "no engine can run this query".into(),
            ));
        }
        alts.sort_by(|a, b| {
            a.cost_us
                .partial_cmp(&b.cost_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let (chosen, maxgap, cost_us, forced_flag) = match forced {
            Some(EngineChoice::Prix) => {
                let id = if needs_ep || !caps.rp {
                    EngineId::PrixEp
                } else {
                    EngineId::PrixRp
                };
                let cost = alts
                    .iter()
                    .find(|a| a.engine == id && a.maxgap == opts.use_maxgap)
                    .map_or(0.0, |a| a.cost_us);
                (id, opts.use_maxgap, cost, true)
            }
            Some(EngineChoice::Forced(id)) => {
                let cost = alts
                    .iter()
                    .find(|a| a.engine == id && (!id.is_prix() || a.maxgap == opts.use_maxgap))
                    .map_or(0.0, |a| a.cost_us);
                (id, opts.use_maxgap, cost, true)
            }
            None => {
                let best = alts
                    .iter()
                    .find(|a| a.eligible)
                    .ok_or_else(|| IndexError::Unsupported("no eligible engine".into()))?;
                (best.engine, best.maxgap, best.cost_us, false)
            }
        };

        Ok(PlanReport {
            shape,
            ewma_samples: self
                .stats
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .ewma_samples(),
            alternatives: alts,
            chosen,
            maxgap,
            cost_us,
            forced: forced_flag,
            prix_exact: exact,
        })
    }

    /// Ranks unordered-mode arrangements cheapest-first by the
    /// frequency of their root label (the last symbol every subsequence
    /// match must reach): rarer roots drain or fail faster, so under a
    /// shared limit the cheap arrangements get first crack at it.
    pub fn rank_arrangements(&self, arrangements: &[TwigQuery]) -> Vec<usize> {
        let stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let mut order: Vec<(f64, usize)> = arrangements
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let tree = q.tree();
                (stats.freq(tree.label(tree.root())), i)
            })
            .collect();
        order.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// Records an observed execution and reports whether it counts as
    /// a misprediction (observed wall time blowing through the chosen
    /// estimate by [`MISPREDICT_FACTOR`]).
    pub fn observe(&self, report: &PlanReport, elapsed: Duration) -> bool {
        let us = elapsed.as_micros() as f64;
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(report.shape, report.chosen, us);
        !report.forced && report.cost_us > 0.0 && us > MISPREDICT_FACTOR * report.cost_us
    }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// A routed execution: the outcome (canonicalized) plus the plan that
/// produced it.
#[derive(Debug)]
pub struct Routed {
    /// The canonicalized outcome.
    pub outcome: QueryOutcome,
    /// The plan.
    pub report: PlanReport,
    /// Did the observed time blow through the estimate?
    pub mispredicted: bool,
}

/// Plans and executes one query over a snapshot's PRIX indexes plus
/// optional alternative engines.
pub struct Router<'a> {
    /// The epoch-pinned view PRIX runs on; its planner scores the plan.
    pub prix: &'a EngineSnapshot,
    /// Lazily-built alternative engines.
    pub alts: &'a dyn AltProvider,
}

impl<'a> Router<'a> {
    /// Plans `q` without executing (the `/explain` path).
    pub fn plan(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        forced: Option<EngineChoice>,
    ) -> Result<PlanReport> {
        // The snapshot's capabilities (what `/explain` shows); the
        // alternative engines additionally need a willing provider.
        let mut caps = self.prix.engine_caps();
        if !self.alts.available() {
            caps.vist = false;
            caps.twigstack = false;
        }
        self.prix.planner().decide(q, caps, opts, forced)
    }

    /// Plans and executes `q`, canonicalizes an alternative engine's
    /// result (PRIX results already are), and feeds the observation
    /// back into the EWMA table.
    pub fn route(
        &self,
        q: &TwigQuery,
        opts: &ExecOpts,
        forced: Option<EngineChoice>,
    ) -> Result<Routed> {
        let report = self.plan(q, opts, forced)?;
        let mut exec_opts = *opts;
        if report.chosen.is_prix() {
            exec_opts.use_maxgap = report.maxgap;
        }
        let outcome = match report.chosen {
            EngineId::PrixRp => self
                .prix
                .query_forced(q, &exec_opts, Some(IndexKind::Regular))?,
            EngineId::PrixEp => self
                .prix
                .query_forced(q, &exec_opts, Some(IndexKind::Extended))?,
            id => {
                let engine = self.alts.alt_engine(id)?;
                if !engine.supports(q) {
                    return Err(IndexError::Unsupported(format!(
                        "engine {} cannot answer this query",
                        id.label()
                    )));
                }
                let mut outcome = engine.execute(q, &exec_opts)?;
                canonicalize(&mut outcome);
                outcome
            }
        };
        let mispredicted = self.prix.planner().observe(&report, outcome.elapsed);
        Ok(Routed {
            outcome,
            report,
            mispredicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::parse_xpath;
    use prix_xml::SymbolTable;

    fn q(x: &str) -> TwigQuery {
        let mut syms = SymbolTable::new();
        parse_xpath(x, &mut syms).unwrap()
    }

    #[test]
    fn shape_counts_nodes_leaves_values_and_desc_edges() {
        let s = QueryShape::of(&q("//a[./b]//c"));
        assert_eq!((s.nodes, s.leaves), (3, 2));
        assert!(s.desc_edges >= 1);
        let v = QueryShape::of(&q("/a/b[.=\"x\"]"));
        assert_eq!(v.values, 1);
    }

    #[test]
    fn shape_key_is_stable_and_packs() {
        let s = QueryShape {
            nodes: 3,
            leaves: 2,
            values: 1,
            desc_edges: 1,
        };
        assert_eq!(s.key(), (3 << 18) | (2 << 12) | (1 << 6) | 1);
    }

    #[test]
    fn embedding_exactness_gate() {
        // Pure paths are exact even with // edges.
        assert!(prix_embedding_exact(&q("//a//b")));
        assert!(prix_embedding_exact(&q("/a/b/c")));
        // A branch with only / edges is exact.
        assert!(prix_embedding_exact(&q("//a[./b]/c")));
        // A // edge at a branching node is not.
        assert!(!prix_embedding_exact(&q("//a[.//b]/c")));
    }

    #[test]
    fn stats_roundtrip_through_encode_decode() {
        let mut s = PlannerStats::default();
        s.tag_freq.insert(Sym(3), 100);
        s.tag_freq.insert(Sym(7), 5);
        s.total_nodes = 105;
        s.total_values = 10;
        s.doc_count = 2;
        s.set_trie_shape(40, 12, 2);
        s.observe(
            QueryShape {
                nodes: 3,
                leaves: 1,
                values: 0,
                desc_edges: 1,
            },
            EngineId::TwigStackXb,
            123.0,
        );
        let d = PlannerStats::decode(&s.encode()).unwrap();
        assert_eq!(d.tag_freq, s.tag_freq);
        assert_eq!(d.total_nodes, 105);
        assert_eq!(d.total_values, 10);
        assert_eq!(d.doc_count, 2);
        assert_eq!(d.trie_nodes, 40);
        assert_eq!(d.ewma_us.len(), 1);
        let key = QueryShape {
            nodes: 3,
            leaves: 1,
            values: 0,
            desc_edges: 1,
        }
        .key();
        assert_eq!(d.ewma_us[&key][EngineId::TwigStackXb.index()], 123.0);
    }

    #[test]
    fn encoded_stats_fit_the_catalog_budget() {
        // Worst case: full tag table, full EWMA table.
        let mut s = PlannerStats::default();
        for i in 0..500u32 {
            s.tag_freq.insert(Sym(i), 1000 + i as u64);
        }
        for i in 0..200u32 {
            s.observe(
                QueryShape {
                    nodes: i % 60,
                    leaves: 1,
                    values: 0,
                    desc_edges: 0,
                },
                EngineId::PrixRp,
                50.0,
            );
        }
        let bytes = s.encode();
        // Must leave room for the fixed catalog header (44 bytes), the
        // length prefix, and the trailing valix record id inside one
        // 4 KiB page.
        assert!(bytes.len() + 56 <= 4096, "{} bytes", bytes.len());
        let d = PlannerStats::decode(&bytes).unwrap();
        assert_eq!(d.tag_freq.len(), TAG_CAP);
        assert!(d.ewma_us.len() <= EWMA_CAP);
    }

    #[test]
    fn ewma_eviction_is_lru_and_pinned_at_64_shapes() {
        // The cap is part of the persisted PLN1 format (the blob must
        // fit the catalog page); changing it is a format decision, not
        // a tuning knob.
        assert_eq!(EWMA_CAP, 64);
        let shape = |i: u32| QueryShape {
            nodes: i % 60,
            leaves: i / 60,
            values: 0,
            desc_edges: 0,
        };
        let mut s = PlannerStats::default();
        s.observe(shape(0), EngineId::PrixRp, 50.0);
        for i in 1..200u32 {
            s.observe(shape(i), EngineId::PrixRp, 50.0);
            // Re-observe shape 0 every round: LRU must keep it alive.
            s.observe(shape(0), EngineId::PrixRp, 50.0);
            assert!(s.ewma_us.len() <= EWMA_CAP);
            assert_eq!(s.ewma_us.len(), s.ewma_order.len());
        }
        assert_eq!(s.ewma_us.len(), EWMA_CAP);
        // FIFO would have evicted the hot shape after 64 distinct
        // newcomers; LRU evicts the cold ones instead.
        assert!(s.ewma_us.contains_key(&shape(0).key()));
        assert!(!s.ewma_us.contains_key(&shape(1).key()));
        let d = PlannerStats::decode(&s.encode()).unwrap();
        assert_eq!(d.ewma_us.len(), EWMA_CAP);
    }

    #[test]
    fn skewed_frequencies_route_descendant_paths_to_xb() {
        // A rare leaf under a very frequent ancestor with // edges:
        // PRIX gets no MaxGap pruning and scans the big tag, XB skips.
        let mut s = PlannerStats::default();
        s.tag_freq.insert(Sym(1), 200_000); // hay
        s.tag_freq.insert(Sym(2), 50); // needle
        s.total_nodes = 200_050;
        s.doc_count = 1;
        let planner = Planner::new(s);
        let mut syms = SymbolTable::new();
        syms.intern("pad"); // push tag ids to 1/2
        let hay = syms.intern("hay");
        let needle = syms.intern("needle");
        assert_eq!((hay, needle), (Sym(1), Sym(2)));
        let q = parse_xpath("//hay//needle", &mut syms).unwrap();
        let caps = EngineCaps {
            rp: true,
            ep: true,
            vist: true,
            twigstack: true,
        };
        let report = planner
            .decide(&q, caps, &ExecOpts::default(), None)
            .unwrap();
        assert_eq!(report.chosen, EngineId::TwigStackXb, "{report:?}");
        assert!(!report.forced);
    }

    #[test]
    fn balanced_child_paths_stay_on_prix() {
        let mut s = PlannerStats::default();
        for i in 1..=3u32 {
            s.tag_freq.insert(Sym(i), 1_000);
        }
        s.total_nodes = 3_000;
        s.doc_count = 10;
        s.set_trie_shape(600, 200, 10); // healthy prefix sharing
        let planner = Planner::new(s);
        let mut syms = SymbolTable::new();
        syms.intern("pad");
        syms.intern("a");
        syms.intern("b");
        syms.intern("c");
        let q = parse_xpath("/a/b/c", &mut syms).unwrap();
        let caps = EngineCaps {
            rp: true,
            ep: true,
            vist: true,
            twigstack: true,
        };
        let report = planner
            .decide(&q, caps, &ExecOpts::default(), None)
            .unwrap();
        assert!(report.chosen.is_prix(), "{report:?}");
    }

    #[test]
    fn forced_choice_bypasses_the_comparison() {
        let planner = Planner::new(PlannerStats::default());
        let caps = EngineCaps {
            rp: true,
            ep: true,
            vist: true,
            twigstack: true,
        };
        let report = planner
            .decide(
                &q("//a[.//b]/c"), // not exact: alts ineligible...
                caps,
                &ExecOpts::default(),
                Some(EngineChoice::Forced(EngineId::Vist)), // ...but forceable
            )
            .unwrap();
        assert_eq!(report.chosen, EngineId::Vist);
        assert!(report.forced);
    }

    #[test]
    fn observations_feed_the_ewma_and_flag_mispredictions() {
        let planner = Planner::new(PlannerStats::default());
        let caps = EngineCaps {
            rp: true,
            ep: false,
            vist: false,
            twigstack: false,
        };
        let query = q("/a/b");
        let report = planner
            .decide(&query, caps, &ExecOpts::default(), None)
            .unwrap();
        assert!(report.cost_us > 0.0);
        // 10x over the estimate: mispredicted.
        let slow = Duration::from_micros((report.cost_us * 10.0) as u64);
        assert!(planner.observe(&report, slow));
        // The EWMA now exists and gets blended into the next decision.
        let again = planner
            .decide(&query, caps, &ExecOpts::default(), None)
            .unwrap();
        assert_eq!(again.ewma_samples, 1);
        assert!(again.cost_us > report.cost_us);
        // Within budget: not a misprediction.
        assert!(!planner.observe(&again, Duration::from_micros(1)));
    }

    #[test]
    fn value_predicates_gate_the_alternative_engines() {
        // The same skew that routes //hay//needle to XB: adding a value
        // predicate pins the plan to PRIX, because only the PRIX
        // refinement stage evaluates predicates.
        let mut s = PlannerStats::default();
        s.tag_freq.insert(Sym(1), 200_000);
        s.tag_freq.insert(Sym(2), 50);
        s.total_nodes = 200_050;
        s.doc_count = 1;
        let planner = Planner::new(s);
        let caps = EngineCaps {
            rp: true,
            ep: true,
            vist: true,
            twigstack: true,
        };
        let query = q("//hay//needle[price < 10]");
        let report = planner
            .decide(&query, caps, &ExecOpts::default(), None)
            .unwrap();
        assert!(report.chosen.is_prix(), "{report:?}");
        for alt in report.alternatives.iter().filter(|a| !a.engine.is_prix()) {
            assert!(!alt.eligible);
            assert!(alt.note.contains("predicate"), "{}", alt.note);
        }
    }

    #[test]
    fn engine_choice_parses_the_cli_names() {
        assert_eq!(EngineChoice::parse("prix"), Some(EngineChoice::Prix));
        assert_eq!(
            EngineChoice::parse("twigstackxb"),
            Some(EngineChoice::Forced(EngineId::TwigStackXb))
        );
        assert_eq!(
            EngineChoice::parse("vist"),
            Some(EngineChoice::Forced(EngineId::Vist))
        );
        assert_eq!(EngineChoice::parse("bogus"), None);
    }

    #[test]
    fn arrangement_ranking_puts_rare_roots_first() {
        let mut s = PlannerStats::default();
        let mut syms = SymbolTable::new();
        syms.intern("pad");
        let a = syms.intern("a");
        let b = syms.intern("b");
        s.tag_freq.insert(a, 10_000);
        s.tag_freq.insert(b, 10);
        s.total_nodes = 10_010;
        let planner = Planner::new(s);
        let qa = parse_xpath("/a/b", &mut syms).unwrap(); // root a (frequent)
        let qb = parse_xpath("/b/a", &mut syms).unwrap(); // root b (rare)
        let order = planner.rank_arrangements(&[qa, qb]);
        assert_eq!(order, vec![1, 0]);
    }
}
