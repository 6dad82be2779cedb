//! The disk-resident PRIX index (paper §5).
//!
//! One [`PrixIndex`] covers one collection in one of two flavors
//! (§5.6): **RPIndex** over Regular-Prüfer sequences or **EPIndex** over
//! Extended-Prüfer sequences. Both consist of
//!
//! * the **Trie-Symbol index** — the virtual trie's labeled nodes keyed
//!   by `(symbol, LeftPos)` in a B⁺-tree (one logical index per tag,
//!   stored as a composite key so sparsely-used tags share pages),
//! * the **Docid index** — document ids keyed by the LeftPos of the trie
//!   node where each LPS ends,
//! * per-document records (NPS, LPS, leaf list, and for EPIndex the
//!   extended→original postorder map) in a [`RecordStore`],
//! * the per-label [`MaxGapTable`] (§5.4).
//!
//! Query execution is Algorithm 1 (`FindSubsequence` by range queries,
//! with the Theorem 4 MaxGap pruning) followed by Algorithm 2 (the
//! refinement phases), producing the set of twig matches with their
//! embeddings.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use prix_prufer::{EdgeKind, ExtendedTree, MaxGapTable, PruferSeq};
use prix_storage::{
    BPlusTree, BufferPool, RecordId, RecordStore, SegmentReader, StorageError, SEG_KIND_RP,
};
use prix_xml::{Collection, DocId, PostNum, ScratchSyms, Sym, XmlTree};

use crate::exec::MatchStream;
use crate::query::TwigQuery;
use crate::trie::{LabelingMode, VirtualTrie};
use crate::valix::PredEval;

/// Which sequence flavor an index stores (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Regular-Prüfer sequences: internal labels only; queries whose
    /// leaves all hang on `/` edges and carry no values.
    Regular,
    /// Extended-Prüfer sequences: every label appears; required for
    /// value predicates, single-node queries, and wildcard edges above
    /// leaves.
    Extended,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::Regular => write!(f, "RPIndex"),
            IndexKind::Extended => write!(f, "EPIndex"),
        }
    }
}

/// Index-layer error.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// The query cannot be answered by this index kind.
    Unsupported(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "index storage error: {e}"),
            IndexError::Unsupported(m) => write!(f, "unsupported query: {m}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

/// One occurrence of a twig in a document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TwigMatch {
    /// Document containing the occurrence.
    pub doc: DocId,
    /// `embedding[q - 1]` = postorder number (in the *original*
    /// document numbering) of the image of query node `q` (original
    /// query postorder).
    pub embedding: Vec<PostNum>,
}

/// Counters describing one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Range queries issued against the Trie-Symbol index
    /// (line 1 of Algorithm 1).
    pub range_queries: u64,
    /// Trie nodes produced by those range queries.
    pub nodes_scanned: u64,
    /// Candidates pruned by the MaxGap metric (Theorem 4).
    pub maxgap_pruned: u64,
    /// `(doc, S)` candidate pairs entering refinement.
    pub candidates: u64,
    /// Candidates surviving all refinement phases.
    pub refined: u64,
    /// Distinct twig matches reported.
    pub matches: u64,
    /// Value-index probes issued for the query's predicates.
    pub valix_probes: u64,
    /// Postings scanned by those probes.
    pub valix_postings: u64,
    /// Candidates dropped by the valix document pre-filter before
    /// refinement (their documents cannot satisfy every predicate).
    pub pred_skipped: u64,
    /// Refined matches rejected by positional predicate verification.
    pub pred_rejected: u64,
    /// Wall clock spent in the filtering stage (Algorithm 1: trie range
    /// queries + MaxGap pruning + docid scans).
    pub filter_time: Duration,
    /// Wall clock spent in refinement (per-document record loads +
    /// Algorithm 2).
    pub refine_time: Duration,
    /// Wall clock spent projecting embeddings and deduplicating
    /// matches.
    pub project_time: Duration,
}

impl QueryStats {
    /// This stats value with the wall-clock timings zeroed. Counters
    /// are deterministic per query; timings are not — compare
    /// `a.counters_only() == b.counters_only()` in tests.
    pub fn counters_only(mut self) -> QueryStats {
        self.filter_time = Duration::default();
        self.refine_time = Duration::default();
        self.project_time = Duration::default();
        self
    }
}

/// Execution options: the MaxGap toggles back the §5.4 ablation bench,
/// `limit` drives LIMIT pushdown through the streaming executor
/// ([`PrixIndex::execute`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecOpts {
    /// Apply the Theorem 4 pruning during subsequence matching.
    pub use_maxgap: bool,
    /// Use the finer-grained per-trie-node MaxGap values (§5.4:
    /// "Finer-grained MaxGap values can be stored in every occurrence
    /// of a symbol in the virtual trie"). Only effective when
    /// `use_maxgap` is set.
    pub use_fine_maxgap: bool,
    /// Stop after this many distinct matches. `None` = unlimited. With
    /// a limit the executor stops *pulling* — remaining trie range
    /// queries, docid scans, and refinements never run. Which matches
    /// make the cut follows trie-traversal order.
    pub limit: Option<usize>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            use_maxgap: true,
            use_fine_maxgap: true,
            limit: None,
        }
    }
}

impl ExecOpts {
    /// Default options: MaxGap pruning on, no limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stops after `limit` distinct matches.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Removes any match limit.
    pub fn without_limit(mut self) -> Self {
        self.limit = None;
        self
    }

    /// Disables Theorem 4 pruning entirely.
    pub fn without_maxgap(mut self) -> Self {
        self.use_maxgap = false;
        self
    }

    /// Keeps the global per-label MaxGap bound but drops the per-node
    /// fine gaps (§5.4 ablation).
    pub fn without_fine_maxgap(mut self) -> Self {
        self.use_fine_maxgap = false;
        self
    }
}

/// Statistics recorded while building the index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Labeled trie nodes.
    pub trie_nodes: usize,
    /// Distinct root-to-leaf trie paths.
    pub trie_paths: usize,
    /// Sequences inserted (= documents).
    pub sequences: u64,
    /// Maximum number of sequences sharing one path.
    pub max_path_sharing: u64,
    /// Scope underflows (dynamic labeling only).
    pub underflows: u64,
    /// Total length of all indexed sequences.
    pub total_seq_len: u64,
}

#[derive(Clone)]
struct DocRecords {
    nps: RecordId,
    lps: RecordId,
    leaves: RecordId,
    /// Extended→original postorder map (EPIndex only).
    orig_map: Option<RecordId>,
    /// Node count of the original document.
    n_orig: u32,
}

/// A PRIX index over one collection *tier*.
///
/// `Clone` snapshots the *handles* (tree roots, record ids, per-doc
/// table, MaxGap): clones share the underlying pages. The engine's
/// snapshot publication clones the index once per commit to give
/// readers a frozen catalog while the writer's copy keeps mutating;
/// the two stay consistent through the pool's epoch-pinned page views.
///
/// Two backings exist behind one query interface: the **mutable tier**
/// (B⁺-trees and a record store through the buffer pool, the only tier
/// that accepts inserts) and **immutable segments** (the bulk-built
/// implicit-tree files of `prix_storage::segment`, read through their
/// own block cache). The executor is backing-agnostic — it only sees
/// [`PrixIndex::scan_tag_range`] / [`PrixIndex::scan_docids`] /
/// [`PrixIndex::load_doc`].
#[derive(Clone)]
pub struct PrixIndex {
    kind: IndexKind,
    maxgap: MaxGapTable,
    dummy: Sym,
    build_stats: BuildStats,
    /// First global document id of this tier: ids stored in the backing
    /// are tier-local, [`PrixIndex::scan_docids`] adds the base and
    /// [`PrixIndex::load_doc`] subtracts it.
    doc_base: DocId,
    /// Labels that occur on childless nodes somewhere in the collection
    /// (values, empty elements). A query leaf with such a label cannot
    /// use the leaf-extended plan soundly (§4.4): its image might be a
    /// childless node, which a dummy-extended query would miss.
    childless: std::collections::HashSet<Sym>,
    backing: Backing,
}

/// Where a [`PrixIndex`] reads its trie nodes, doc ends, and records.
#[derive(Clone)]
enum Backing {
    Tree(TreeBacking),
    Seg(Arc<SegmentReader>),
}

/// The mutable tier: everything lives in buffer-pool pages.
#[derive(Clone)]
struct TreeBacking {
    /// Trie-Symbol index: key = sym(4, BE) ++ left(8, BE),
    /// value = right(8, LE) ++ level(4, LE) ++ fine_gap(4, LE).
    tag_index: BPlusTree,
    /// Docid index: key = left(8, BE), value = doc(4, LE).
    docid_index: BPlusTree,
    /// Trie-node table for incremental inserts: key = left(8, BE),
    /// value = right(8, LE) ++ frontier(8, LE) ++ level(4, LE) ++
    /// sym(4, LE). Entry 0 is the virtual root.
    trie_nodes: BPlusTree,
    docs: Vec<DocRecords>,
    store: RecordStore,
    /// Last metadata record written by [`PrixIndex::save`], with the
    /// exact bytes it serialized: an unchanged index reuses the record
    /// instead of appending a fresh copy on every save.
    saved_meta: Option<(RecordId, Vec<u8>)>,
}

fn tag_key(sym: Sym, left: u64) -> [u8; 12] {
    let mut k = [0u8; 12];
    k[..4].copy_from_slice(&sym.0.to_be_bytes());
    k[4..].copy_from_slice(&left.to_be_bytes());
    k
}

fn encode_u32s(vals: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Per-document artifacts produced while indexing one tree: its
/// sequences, the ext→orig map (extended kind only), the leaf list, and
/// the per-position gaps feeding the fine-grained MaxGap.
type DocArtifacts = (
    PruferSeq,
    Option<Vec<PostNum>>,
    Vec<(Sym, PostNum)>,
    Vec<u32>,
);

/// Cached per-document data used by refinement.
pub(crate) struct DocData {
    pub(crate) nps: Vec<PostNum>,
    pub(crate) lps: Vec<Sym>,
    pub(crate) leaves: Vec<(Sym, PostNum)>,
    pub(crate) orig_map: Option<Vec<PostNum>>,
    pub(crate) n_orig: u32,
}

impl PrixIndex {
    /// Builds an index of the given `kind` over `collection`.
    ///
    /// `dummy` is the label used for the §5.6 leaf extension (EPIndex
    /// only); it must not be used as a query label.
    pub fn build(
        pool: Arc<BufferPool>,
        collection: &Collection,
        kind: IndexKind,
        mode: LabelingMode,
        dummy: Sym,
    ) -> Result<Self> {
        let mut store = RecordStore::create(Arc::clone(&pool))?;
        let mut trie = VirtualTrie::new();
        let mut maxgap = MaxGapTable::new();
        let mut docs = Vec::with_capacity(collection.len());
        let mut total_seq_len = 0u64;
        let mut childless: std::collections::HashSet<Sym> = std::collections::HashSet::new();

        for (doc_id, tree) in collection.iter() {
            for node in tree.nodes() {
                if tree.is_leaf(node) {
                    childless.insert(tree.label(node));
                }
            }
            let (seq, orig_map, leaves_tree, gaps): DocArtifacts = match kind {
                IndexKind::Regular => {
                    maxgap.add_tree(tree);
                    let seq = PruferSeq::regular(tree);
                    let gaps = position_gaps(&seq.nps, &node_gaps(tree));
                    (seq, None, tree.leaves(), gaps)
                }
                IndexKind::Extended => {
                    let ext = ExtendedTree::build(tree, dummy);
                    maxgap.add_tree(&ext.tree);
                    let seq = PruferSeq::regular(&ext.tree);
                    let gaps = position_gaps(&seq.nps, &node_gaps(&ext.tree));
                    (seq, Some(ext.orig_post), ext.tree.leaves(), gaps)
                }
            };
            total_seq_len += seq.len() as u64;
            trie.insert_with_gaps(&seq.lps, doc_id, Some(&gaps));
            let nps_rec = store.append(&encode_u32s(seq.nps.iter().copied()))?;
            let lps_rec = store.append(&encode_u32s(seq.lps.iter().map(|s| s.0)))?;
            let leaves_rec = store.append(&encode_u32s(
                leaves_tree.iter().flat_map(|&(s, p)| [s.0, p]),
            ))?;
            let orig_rec = match &orig_map {
                Some(m) => Some(store.append(&encode_u32s(m.iter().copied()))?),
                None => None,
            };
            docs.push(DocRecords {
                nps: nps_rec,
                lps: lps_rec,
                leaves: leaves_rec,
                orig_map: orig_rec,
                n_orig: tree.len() as u32,
            });
        }

        trie.assign_ranges(mode);
        let build_stats = BuildStats {
            trie_nodes: trie.node_count(),
            trie_paths: trie.leaf_count(),
            sequences: trie.sequence_count(),
            max_path_sharing: trie.max_path_sharing(),
            underflows: trie.underflows(),
            total_seq_len,
        };

        // Bulk-load the Trie-Symbol index sorted by (sym, left).
        let mut tag_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(trie.node_count());
        trie.for_each_node(|n| {
            let mut val = Vec::with_capacity(16);
            val.extend_from_slice(&n.right.to_le_bytes());
            val.extend_from_slice(&n.level.to_le_bytes());
            val.extend_from_slice(&n.fine_gap.to_le_bytes());
            tag_entries.push((tag_key(n.sym, n.left).to_vec(), val));
        });
        tag_entries.sort();
        let tag_index = BPlusTree::bulk_load(Arc::clone(&pool), tag_entries, 0.9)?;

        // Docid index sorted by left.
        let mut doc_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        trie.for_each_doc_end(|left, doc| {
            doc_entries.push((left.to_be_bytes().to_vec(), doc.to_le_bytes().to_vec()));
        });
        doc_entries.sort();
        let docid_index = BPlusTree::bulk_load(Arc::clone(&pool), doc_entries, 0.9)?;

        // Trie-node table (allocation state for incremental inserts).
        let mut node_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(trie.node_count() + 1);
        let encode_node = |n: &crate::trie::LabeledNode| -> (Vec<u8>, Vec<u8>) {
            let mut v = Vec::with_capacity(24);
            v.extend_from_slice(&n.right.to_le_bytes());
            v.extend_from_slice(&n.frontier.to_le_bytes());
            v.extend_from_slice(&n.level.to_le_bytes());
            v.extend_from_slice(&n.sym.0.to_le_bytes());
            (n.left.to_be_bytes().to_vec(), v)
        };
        node_entries.push(encode_node(&trie.root_node()));
        trie.for_each_node(|n| node_entries.push(encode_node(&n)));
        node_entries.sort();
        let trie_nodes = BPlusTree::bulk_load(Arc::clone(&pool), node_entries, 0.8)?;

        Ok(PrixIndex {
            kind,
            maxgap,
            dummy,
            build_stats,
            doc_base: 0,
            childless,
            backing: Backing::Tree(TreeBacking {
                tag_index,
                docid_index,
                trie_nodes,
                docs,
                store,
                saved_meta: None,
            }),
        })
    }

    /// The mutable-tier backing, or `Unsupported` for a segment tier.
    fn tree(&self) -> Result<&TreeBacking> {
        match &self.backing {
            Backing::Tree(t) => Ok(t),
            Backing::Seg(_) => Err(IndexError::Unsupported(
                "operation needs the mutable index tier; this is an immutable segment".into(),
            )),
        }
    }

    fn tree_mut(&mut self) -> Result<&mut TreeBacking> {
        match &mut self.backing {
            Backing::Tree(t) => Ok(t),
            Backing::Seg(_) => Err(IndexError::Unsupported(
                "operation needs the mutable index tier; this is an immutable segment".into(),
            )),
        }
    }

    /// Checks that [`PrixIndex::insert_document`] would succeed for
    /// `tree` without mutating anything: a read-only descent of the
    /// virtual trie that verifies the parent scope at the first
    /// divergence point has room for the remaining suffix. (Once a
    /// fresh child is carved out it receives at least `need` positions,
    /// so every deeper level fits by induction — the first divergence
    /// is the only place an insert can fail.)
    ///
    /// [`crate::PrixEngine::insert_document`] runs this against *both*
    /// indexes before inserting into either, so a rejected document
    /// cannot leave RP and EP with different document counts.
    pub fn check_insert(&self, tree: &XmlTree) -> Result<()> {
        let lps: Vec<Sym> = match self.kind {
            IndexKind::Regular => PruferSeq::regular(tree).lps,
            IndexKind::Extended => {
                PruferSeq::regular(&ExtendedTree::build(tree, self.dummy).tree).lps
            }
        };
        let mut cur = self.read_trie_node(0)?;
        for (i, &sym) in lps.iter().enumerate() {
            let level = (i + 1) as u32;
            match self.find_child(&cur, sym, level)? {
                Some(child) => cur = child,
                None => {
                    let available = cur.right.saturating_sub(cur.frontier);
                    let need = (lps.len() - i) as u64;
                    if available < need {
                        return Err(scope_underflow(level, available, need));
                    }
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Incrementally indexes one more document — the use case the
    /// paper's dynamic labeling scheme exists for (§5.2.1: ranges can
    /// be assigned "without building a physical trie").
    ///
    /// Descends the virtual trie through the node table; existing path
    /// prefixes are shared, new trie nodes take half of their parent's
    /// remaining scope (the paper's policy). Fails with
    /// [`IndexError::Unsupported`] on scope underflow — build the index
    /// with [`LabelingMode::Dynamic`] to leave headroom (the bulk-exact
    /// labeling packs scopes densely, so only already-present paths and
    /// fresh top-level branches can be added to it).
    pub fn insert_document(&mut self, tree: &XmlTree) -> Result<DocId> {
        // Validate first: a scope underflow discovered mid-descent must
        // not leave the MaxGap table, childless set, or trie mutated
        // for a document that was never indexed.
        self.check_insert(tree)?;
        let local = self.tree()?.docs.len() as u32;
        for node in tree.nodes() {
            if tree.is_leaf(node) {
                self.childless.insert(tree.label(node));
            }
        }
        let (seq, orig_map, leaves_tree, gaps): DocArtifacts = match self.kind {
            IndexKind::Regular => {
                self.maxgap.add_tree(tree);
                let seq = PruferSeq::regular(tree);
                let gaps = position_gaps(&seq.nps, &node_gaps(tree));
                (seq, None, tree.leaves(), gaps)
            }
            IndexKind::Extended => {
                let ext = ExtendedTree::build(tree, self.dummy);
                self.maxgap.add_tree(&ext.tree);
                let seq = PruferSeq::regular(&ext.tree);
                let gaps = position_gaps(&seq.nps, &node_gaps(&ext.tree));
                (seq, Some(ext.orig_post), ext.tree.leaves(), gaps)
            }
        };

        // Descend / extend the virtual trie.
        let mut cur = self.read_trie_node(0)?;
        for (i, &sym) in seq.lps.iter().enumerate() {
            let level = (i + 1) as u32;
            match self.find_child(&cur, sym, level)? {
                Some(child) => {
                    // Shared prefix: refresh the per-node fine gap.
                    if child.fine_gap != u32::MAX && gaps[i] > child.fine_gap {
                        self.rewrite_tag_value(sym, child.left, child.right, level, gaps[i])?;
                    }
                    cur = child;
                }
                None => {
                    let available = cur.right.saturating_sub(cur.frontier);
                    let need = (seq.lps.len() - i) as u64;
                    if available < need {
                        return Err(scope_underflow(level, available, need));
                    }
                    let share = (available / 2).max(need).min(available);
                    let child = TrieNodeEntry {
                        left: cur.frontier + 1,
                        right: cur.frontier + share,
                        frontier: cur.frontier + 1,
                        level,
                        sym,
                        fine_gap: gaps[i],
                    };
                    // Tag index entry.
                    let mut val = Vec::with_capacity(16);
                    val.extend_from_slice(&child.right.to_le_bytes());
                    val.extend_from_slice(&child.level.to_le_bytes());
                    val.extend_from_slice(&child.fine_gap.to_le_bytes());
                    self.tree_mut()?
                        .tag_index
                        .insert(&tag_key(sym, child.left), &val)?;
                    // Node-table entries: the child, and the parent's
                    // advanced frontier.
                    self.write_trie_node(&child, true)?;
                    cur.frontier = child.right;
                    self.write_trie_node(&cur, false)?;
                    self.build_stats.trie_nodes += 1;
                    cur = child;
                }
            }
        }
        // Document endpoint + per-document records.
        let t = self.tree_mut()?;
        t.docid_index
            .insert(&cur.left.to_be_bytes(), &local.to_le_bytes())?;
        let nps_rec = t.store.append(&encode_u32s(seq.nps.iter().copied()))?;
        let lps_rec = t.store.append(&encode_u32s(seq.lps.iter().map(|s| s.0)))?;
        let leaves_rec = t.store.append(&encode_u32s(
            leaves_tree.iter().flat_map(|&(s, p)| [s.0, p]),
        ))?;
        let orig_rec = match &orig_map {
            Some(m) => Some(t.store.append(&encode_u32s(m.iter().copied()))?),
            None => None,
        };
        t.docs.push(DocRecords {
            nps: nps_rec,
            lps: lps_rec,
            leaves: leaves_rec,
            orig_map: orig_rec,
            n_orig: tree.len() as u32,
        });
        self.build_stats.sequences += 1;
        self.build_stats.total_seq_len += seq.len() as u64;
        Ok(self.doc_base + local)
    }

    fn read_trie_node(&self, left: u64) -> Result<TrieNodeEntry> {
        let v = self
            .tree()?
            .trie_nodes
            .get(&left.to_be_bytes())?
            .ok_or_else(|| IndexError::Unsupported(format!("trie node {left} missing")))?;
        Ok(TrieNodeEntry {
            left,
            right: u64::from_le_bytes(v[..8].try_into().unwrap()),
            frontier: u64::from_le_bytes(v[8..16].try_into().unwrap()),
            level: u32::from_le_bytes(v[16..20].try_into().unwrap()),
            sym: Sym(u32::from_le_bytes(v[20..24].try_into().unwrap())),
            fine_gap: u32::MAX,
        })
    }

    fn write_trie_node(&mut self, n: &TrieNodeEntry, fresh: bool) -> Result<()> {
        let t = self.tree_mut()?;
        if !fresh {
            t.trie_nodes.delete(&n.left.to_be_bytes(), None)?;
        }
        let mut v = Vec::with_capacity(24);
        v.extend_from_slice(&n.right.to_le_bytes());
        v.extend_from_slice(&n.frontier.to_le_bytes());
        v.extend_from_slice(&n.level.to_le_bytes());
        v.extend_from_slice(&n.sym.0.to_le_bytes());
        t.trie_nodes.insert(&n.left.to_be_bytes(), &v)?;
        Ok(())
    }

    /// The direct child of `cur` labeled `sym` (a trie node at exactly
    /// `level` inside `cur`'s scope), if present.
    fn find_child(
        &self,
        cur: &TrieNodeEntry,
        sym: Sym,
        level: u32,
    ) -> Result<Option<TrieNodeEntry>> {
        let lo = tag_key(sym, cur.left);
        let hi = tag_key(sym, cur.right);
        let mut found = None;
        self.tree()?
            .tag_index
            .scan(Bound::Excluded(&lo), Bound::Included(&hi), |k, v| {
                let l = u32::from_le_bytes(v[8..12].try_into().unwrap());
                if l != level {
                    return true;
                }
                found = Some(TrieNodeEntry {
                    left: u64::from_be_bytes(k[4..12].try_into().unwrap()),
                    right: u64::from_le_bytes(v[..8].try_into().unwrap()),
                    frontier: 0, // filled below
                    level,
                    sym,
                    fine_gap: u32::from_le_bytes(v[12..16].try_into().unwrap()),
                });
                false
            })?;
        match found {
            None => Ok(None),
            Some(mut n) => {
                let stored = self.read_trie_node(n.left)?;
                n.frontier = stored.frontier;
                Ok(Some(n))
            }
        }
    }

    /// Replaces a tag-index entry's value (fine-gap refresh).
    fn rewrite_tag_value(
        &mut self,
        sym: Sym,
        left: u64,
        right: u64,
        level: u32,
        fine: u32,
    ) -> Result<()> {
        let key = tag_key(sym, left);
        let t = self.tree_mut()?;
        t.tag_index.delete(&key, None)?;
        let mut val = Vec::with_capacity(16);
        val.extend_from_slice(&right.to_le_bytes());
        val.extend_from_slice(&level.to_le_bytes());
        val.extend_from_slice(&fine.to_le_bytes());
        t.tag_index.insert(&key, &val)?;
        Ok(())
    }

    /// This index's sequence flavor.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Build-time statistics (trie sharing, underflows, ...).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The per-label MaxGap table (§5.4).
    pub fn maxgap(&self) -> &MaxGapTable {
        &self.maxgap
    }

    /// Number of documents indexed *in this tier*.
    pub fn doc_count(&self) -> usize {
        match &self.backing {
            Backing::Tree(t) => t.docs.len(),
            Backing::Seg(r) => r.n_docs() as usize,
        }
    }

    /// First global document id of this tier.
    pub fn doc_base(&self) -> DocId {
        self.doc_base
    }

    /// Re-bases this tier's document ids (engine tiering: the mutable
    /// tier starts where the segments end).
    pub(crate) fn set_doc_base(&mut self, base: DocId) {
        self.doc_base = base;
    }

    /// The dummy label used for extended sequences.
    pub(crate) fn dummy_sym(&self) -> Sym {
        self.dummy
    }

    /// The childless-label set (§4.4 leaf-extended-plan gate).
    pub(crate) fn childless_set(&self) -> &std::collections::HashSet<Sym> {
        &self.childless
    }

    /// The segment reader behind a segment-backed tier, if any.
    pub(crate) fn segment(&self) -> Option<&Arc<SegmentReader>> {
        match &self.backing {
            Backing::Seg(r) => Some(r),
            Backing::Tree(_) => None,
        }
    }

    /// Describes how this index would run `q`: the plan flavor, the
    /// query's Prüfer sequences, edge constraints, and the Theorem 4
    /// pruning rules.
    pub fn explain(&self, q: &TwigQuery, syms: &ScratchSyms<'_>) -> Result<String> {
        let plan = self.plan(q)?;
        let mut out = String::new();
        let flavor = match (&self.kind, plan.ext_of_orig.is_some()) {
            (IndexKind::Regular, true) => "RPIndex, leaf-extended query (§4.4 fast path)",
            (IndexKind::Regular, false) => "RPIndex, exact plan with leaf-matching phase",
            (IndexKind::Extended, _) => "EPIndex, extended query (§5.6)",
        };
        out.push_str(&format!("plan: {flavor}\n"));
        let lps: Vec<&str> = plan.seq.lps.iter().map(|&x| syms.name(x)).collect();
        out.push_str(&format!("LPS(Q) = {}\n", lps.join(" ")));
        out.push_str(&format!(
            "NPS(Q) = {}\n",
            plan.seq
                .nps
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        ));
        let edge_str: Vec<String> = plan
            .edges
            .iter()
            .map(|e| match e {
                EdgeKind::Child => "/".to_string(),
                EdgeKind::Descendant => "//".to_string(),
                EdgeKind::Exactly(k) => format!("*{{{k}}}"),
            })
            .collect();
        out.push_str(&format!("edges  = {}\n", edge_str.join(" ")));
        out.push_str("executor: streaming filter -> refine -> project (limit pushdown)\n");
        let rules = self.gap_rules(&plan);
        let bounded = rules.iter().flatten().count();
        out.push_str(&format!(
            "MaxGap rules: {bounded} of {} adjacent pairs bounded",
            rules.len()
        ));
        for (k, r) in rules.iter().enumerate() {
            if let Some(rule) = r {
                out.push_str(&format!(
                    "\n  positions {}->{}: distance <= min({}, per-node) + {}",
                    k + 1,
                    k + 2,
                    rule.global,
                    rule.extra
                ));
            }
        }
        out.push('\n');
        Ok(out)
    }

    /// Executes an ordered twig query as a pull-based stream: one
    /// [`MatchStream::next_match`] call pulls exactly as much trie
    /// traversal and refinement as needed to produce the next distinct
    /// match. Dropping the stream (or hitting `opts.limit`) abandons the
    /// remaining trie descent — that is the LIMIT pushdown. Matches
    /// arrive in trie-traversal (document-filter) order; callers that
    /// need the canonical `(doc, embedding)` order sort the drained
    /// matches.
    ///
    /// With a value-predicate evaluator, candidates from documents the
    /// valix pre-filter rules out are skipped before refinement, and
    /// every emitted match passes the evaluator's positional
    /// verification — results are exactly the predicate-free results
    /// post-filtered. The evaluator must outlive the stream.
    pub fn execute<'a>(
        &'a self,
        q: &TwigQuery,
        opts: &ExecOpts,
        pred: Option<&'a PredEval>,
    ) -> Result<MatchStream<'a>> {
        let plan = self.plan(q)?;
        if plan.seq.is_empty() {
            return Err(IndexError::Unsupported(
                "query has an empty Prüfer sequence (single-node query on RPIndex)".into(),
            ));
        }
        Ok(MatchStream::new(self, plan, q.is_absolute(), opts, pred))
    }

    /// Prepares the sequences / edges / leaves for this index kind.
    pub(crate) fn plan(&self, q: &TwigQuery) -> Result<QueryPlan> {
        if self.kind == IndexKind::Regular && q.needs_extended() {
            return Err(IndexError::Unsupported(
                "query requires the EPIndex (values, single node, or wildcard above a leaf)".into(),
            ));
        }
        // The EPIndex always runs the extended query (§5.6). On the
        // RPIndex, §4.4's special leaf treatment: when no query-leaf
        // label ever occurs childless in the data, extending the *query*
        // with dummy leaf children is exact — every query label then
        // participates in subsequence matching, and the LPS starts with
        // the selective deep labels (this is what makes the paper's
        // Q2/Q7/Q8 fast).
        let extended = self.kind == IndexKind::Extended
            || q.leaves().iter().all(|(s, _)| !self.childless.contains(s));
        if !extended {
            return Ok(QueryPlan {
                seq: q.prufer(),
                edges: q.edges_by_post(),
                leaves: q.leaves(),
                qtree: q.tree().clone(),
                ext_of_orig: None,
                n_orig_query: q.tree().len() as u32,
                skip_leaf: false,
            });
        }
        let eq = q.extended(self.dummy);
        // Invert ext -> orig into orig -> ext.
        let mut ext_of_orig = vec![0 as PostNum; q.tree().len()];
        for (i, &orig) in eq.ext.orig_post.iter().enumerate() {
            if orig != 0 {
                ext_of_orig[(orig - 1) as usize] = (i + 1) as PostNum;
            }
        }
        Ok(QueryPlan {
            seq: eq.seq,
            edges: eq.edges,
            leaves: Vec::new(),
            qtree: eq.ext.tree,
            ext_of_orig: Some(ext_of_orig),
            n_orig_query: q.tree().len() as u32,
            skip_leaf: true,
        })
    }

    /// Theorem 4 pruning rules: `rules[k]` bounds `S[k+1] - S[k]` as
    /// `min(global MaxGap(A), per-node fine gap) + extra`.
    ///
    /// All cases require the participating query edges to be `/` edges —
    /// wildcard edges stretch the data-side distance arbitrarily, so no
    /// bound applies (see DESIGN.md).
    pub(crate) fn gap_rules(&self, plan: &QueryPlan) -> Vec<Option<GapRule>> {
        let len = plan.seq.len();
        let mut rules = vec![None; len.saturating_sub(1)];
        for k in 1..len {
            // 1-based pair (k, k+1): nodes k and k+1 of the query.
            let a = plan.seq.nps[k - 1]; // parent of node k ("A")
            let b = plan.seq.nps[k]; // parent of node k + 1 ("B")
            let mg = self.maxgap.get(plan.seq.lps[k - 1]) as u64;
            let edge_k = plan.edges[k - 1];
            let edge_k1 = plan.edges[k];
            if edge_k != EdgeKind::Child {
                continue;
            }
            let rule = if (k + 1) as PostNum == a && edge_k1 == EdgeKind::Child {
                // Node A is a child of node B in Q (node k+1 IS A).
                Some(GapRule {
                    global: mg,
                    extra: 1,
                })
            } else if a == b && edge_k1 == EdgeKind::Child {
                // Nodes k and k+1 are siblings under A.
                Some(GapRule {
                    global: mg,
                    extra: 0,
                })
            } else if edge_k1 == EdgeKind::Child
                && plan
                    .qtree
                    .is_ancestor(plan.qtree.node_at(a), plan.qtree.node_at(b))
            {
                // Node A is an ancestor of node B in Q.
                Some(GapRule {
                    global: mg,
                    extra: 0,
                })
            } else {
                None
            };
            rules[k - 1] = rule;
        }
        rules
    }

    /// One Algorithm 1 range query against the Trie-Symbol index of
    /// `sym`, open-left: descendants of the current trie node have
    /// `left` in `(ql, qr]`. Returns `(left, right, level, fine_gap)`
    /// rows in key order. The [`crate::exec::CandidateCursor`] drives
    /// the trie descent one of these scans at a time.
    pub(crate) fn scan_tag_range(
        &self,
        sym: Sym,
        ql: u64,
        qr: u64,
    ) -> Result<Vec<(u64, u64, u32, u32)>> {
        match &self.backing {
            Backing::Tree(t) => {
                let lo = tag_key(sym, ql);
                let hi = tag_key(sym, qr);
                let mut hits: Vec<(u64, u64, u32, u32)> = Vec::new();
                t.tag_index
                    .scan(Bound::Excluded(&lo), Bound::Included(&hi), |k, v| {
                        let left = u64::from_be_bytes(k[4..12].try_into().unwrap());
                        let right = u64::from_le_bytes(v[..8].try_into().unwrap());
                        let level = u32::from_le_bytes(v[8..12].try_into().unwrap());
                        let fine = u32::from_le_bytes(v[12..16].try_into().unwrap());
                        hits.push((left, right, level, fine));
                        true
                    })?;
                Ok(hits)
            }
            Backing::Seg(r) => Ok(r.scan_tag_range(sym.0, ql, qr)?),
        }
    }

    /// Appends every document whose LPS ends on a trie node with `left`
    /// in `[left, right]` (the Docid-index scan at the last LPS
    /// position of Algorithm 1).
    pub(crate) fn scan_docids(
        &self,
        left: u64,
        right: u64,
        out: &mut std::collections::VecDeque<DocId>,
    ) -> Result<()> {
        let base = self.doc_base;
        match &self.backing {
            Backing::Tree(t) => {
                let lo = left.to_be_bytes();
                let hi = right.to_be_bytes();
                t.docid_index
                    .scan(Bound::Included(&lo), Bound::Included(&hi), |_, v| {
                        out.push_back(base + u32::from_le_bytes(v.try_into().unwrap()));
                        true
                    })?;
            }
            Backing::Seg(r) => {
                r.scan_docids(left, right, &mut |d| out.push_back(base + d))?;
            }
        }
        Ok(())
    }

    /// Reads a document's refinement data. The LPS and leaf list are
    /// only needed by the leaf-matching phase; extended-query plans skip
    /// it, so those records (and their pages) are never touched.
    pub(crate) fn load_doc(&self, doc: DocId, need_leaf_data: bool) -> Result<DocData> {
        debug_assert!(doc >= self.doc_base, "document id below this tier's base");
        let local = doc - self.doc_base;
        match &self.backing {
            Backing::Tree(t) => {
                let rec = &t.docs[local as usize];
                let nps = decode_u32s(&t.store.read(rec.nps)?);
                let (lps, leaves) = if need_leaf_data {
                    let lps = decode_u32s(&t.store.read(rec.lps)?)
                        .into_iter()
                        .map(Sym)
                        .collect();
                    let leaves_raw = decode_u32s(&t.store.read(rec.leaves)?);
                    let leaves = leaves_raw
                        .chunks_exact(2)
                        .map(|c| (Sym(c[0]), c[1]))
                        .collect();
                    (lps, leaves)
                } else {
                    (Vec::new(), Vec::new())
                };
                let orig_map = match rec.orig_map {
                    Some(r) => Some(decode_u32s(&t.store.read(r)?)),
                    None => None,
                };
                Ok(DocData {
                    nps,
                    lps,
                    leaves,
                    orig_map,
                    n_orig: rec.n_orig,
                })
            }
            Backing::Seg(r) => Ok(decode_doc_record(&r.record(local)?, need_leaf_data)),
        }
    }
}

/// A row of the trie-node table (allocation state for incremental
/// inserts).
#[derive(Debug, Clone, Copy)]
struct TrieNodeEntry {
    left: u64,
    right: u64,
    frontier: u64,
    level: u32,
    sym: Sym,
    fine_gap: u32,
}

/// One Theorem 4 pruning rule between adjacent LPS positions: allowed
/// distance = `min(global, per-node fine gap) + extra`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapRule {
    pub(crate) global: u64,
    pub(crate) extra: u64,
}

/// The error for a virtual-trie scope that cannot fit a new suffix.
fn scope_underflow(level: u32, available: u64, need: u64) -> IndexError {
    IndexError::Unsupported(format!(
        "virtual-trie scope underflow at level {level}: {available} positions left \
         for a suffix of {need}; rebuild with dynamic labeling"
    ))
}

/// Postorder gap between the first and last children per node
/// (`out[post - 1]`; 0 for nodes with ≤ 1 child) — Definition 5 at
/// single-node granularity.
pub(crate) fn node_gaps(tree: &XmlTree) -> Vec<u32> {
    let mut out = vec![0u32; tree.len()];
    for node in tree.nodes() {
        let kids = tree.children(node);
        if kids.len() >= 2 {
            let first = tree.postorder(kids[0]);
            let last = tree.postorder(kids[kids.len() - 1]);
            out[(tree.postorder(node) - 1) as usize] = last - first;
        }
    }
    out
}

/// Per-LPS-position gaps: `gaps[i]` = gap of the parent node recorded
/// at position `i`.
pub(crate) fn position_gaps(nps: &[PostNum], node_gaps: &[u32]) -> Vec<u32> {
    nps.iter().map(|&p| node_gaps[(p - 1) as usize]).collect()
}

/// Tiny byte codec for index metadata persistence.
mod codec {
    pub struct Writer(pub Vec<u8>);
    impl Writer {
        pub fn new() -> Self {
            Writer(Vec::new())
        }
        pub fn u8(&mut self, v: u8) {
            self.0.push(v);
        }
        pub fn u32(&mut self, v: u32) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        pub fn u64(&mut self, v: u64) {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
    pub struct Reader<'a>(pub &'a [u8]);
    impl<'a> Reader<'a> {
        pub fn u8(&mut self) -> u8 {
            let v = self.0[0];
            self.0 = &self.0[1..];
            v
        }
        pub fn u32(&mut self) -> u32 {
            let v = u32::from_le_bytes(self.0[..4].try_into().unwrap());
            self.0 = &self.0[4..];
            v
        }
        pub fn u64(&mut self) -> u64 {
            let v = u64::from_le_bytes(self.0[..8].try_into().unwrap());
            self.0 = &self.0[8..];
            v
        }
    }
}

impl PrixIndex {
    /// Serializes the index metadata (roots, per-document record ids,
    /// MaxGap table, childless-label set) into the record store and
    /// returns the metadata record's id. Together with a flushed buffer
    /// pool this makes the index reopenable via [`PrixIndex::load`].
    ///
    /// Saving an index whose metadata has not changed since the last
    /// save returns the previous record id instead of appending a
    /// duplicate, so repeated saves do not leak store space.
    pub fn save(&mut self) -> Result<RecordId> {
        use codec::Writer;
        let mut w = Writer::new();
        w.u8(match self.kind {
            IndexKind::Regular => 0,
            IndexKind::Extended => 1,
        });
        w.u32(self.dummy.0);
        {
            let t = self.tree()?;
            w.u64(t.tag_index.root());
            w.u64(t.docid_index.root());
            w.u64(t.trie_nodes.root());
            w.u32(t.docs.len() as u32);
            for d in &t.docs {
                w.u64(d.nps.raw());
                w.u64(d.lps.raw());
                w.u64(d.leaves.raw());
                w.u64(d.orig_map.map_or(0, |r| r.raw()));
                w.u32(d.n_orig);
            }
        }
        let gaps: Vec<(Sym, PostNum)> = self.maxgap.entries().collect();
        w.u32(gaps.len() as u32);
        for (sym, gap) in gaps {
            w.u32(sym.0);
            w.u32(gap);
        }
        w.u32(self.childless.len() as u32);
        for s in &self.childless {
            w.u32(s.0);
        }
        w.u64(self.build_stats.trie_nodes as u64);
        w.u64(self.build_stats.trie_paths as u64);
        w.u64(self.build_stats.sequences);
        w.u64(self.build_stats.max_path_sharing);
        w.u64(self.build_stats.underflows);
        w.u64(self.build_stats.total_seq_len);
        let t = self.tree_mut()?;
        if let Some((id, bytes)) = &t.saved_meta {
            if *bytes == w.0 {
                return Ok(*id);
            }
        }
        let id = t.store.append(&w.0)?;
        t.saved_meta = Some((id, w.0));
        Ok(id)
    }

    /// Reopens an index previously described by [`PrixIndex::save`].
    pub fn load(pool: Arc<BufferPool>, meta: RecordId) -> Result<Self> {
        use codec::Reader;
        let store = RecordStore::open(Arc::clone(&pool))?;
        let bytes = store.read(meta)?;
        let mut r = Reader(&bytes);
        let kind = match r.u8() {
            0 => IndexKind::Regular,
            _ => IndexKind::Extended,
        };
        let dummy = Sym(r.u32());
        let tag_root = r.u64();
        let docid_root = r.u64();
        let trie_nodes_root = r.u64();
        let n_docs = r.u32() as usize;
        let mut docs = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            let nps = RecordId::from_raw(r.u64());
            let lps = RecordId::from_raw(r.u64());
            let leaves = RecordId::from_raw(r.u64());
            let om = r.u64();
            let n_orig = r.u32();
            docs.push(DocRecords {
                nps,
                lps,
                leaves,
                orig_map: (om != 0).then(|| RecordId::from_raw(om)),
                n_orig,
            });
        }
        let n_gaps = r.u32() as usize;
        let maxgap = MaxGapTable::from_entries((0..n_gaps).map(|_| {
            let sym = Sym(r.u32());
            let gap = r.u32();
            (sym, gap)
        }));
        let n_childless = r.u32() as usize;
        let childless = (0..n_childless).map(|_| Sym(r.u32())).collect();
        let build_stats = BuildStats {
            trie_nodes: r.u64() as usize,
            trie_paths: r.u64() as usize,
            sequences: r.u64(),
            max_path_sharing: r.u64(),
            underflows: r.u64(),
            total_seq_len: r.u64(),
        };
        Ok(PrixIndex {
            kind,
            maxgap,
            dummy,
            build_stats,
            doc_base: 0,
            childless,
            backing: Backing::Tree(TreeBacking {
                tag_index: BPlusTree::open(Arc::clone(&pool), tag_root),
                docid_index: BPlusTree::open(Arc::clone(&pool), docid_root),
                trie_nodes: BPlusTree::open(Arc::clone(&pool), trie_nodes_root),
                docs,
                store,
                saved_meta: Some((meta, bytes)),
            }),
        })
    }

    /// Opens an immutable segment as an index tier. The tier's
    /// `doc_base` comes from the segment header; MaxGap table,
    /// childless set, and build stats come from the segment's metadata
    /// blob (see [`encode_seg_index_meta`]).
    pub fn from_segment(reader: Arc<SegmentReader>) -> Result<Self> {
        use codec::Reader;
        let bytes = reader.meta()?;
        let mut r = Reader(&bytes);
        let kind = match r.u8() {
            0 => IndexKind::Regular,
            _ => IndexKind::Extended,
        };
        if (reader.kind() == SEG_KIND_RP) != matches!(kind, IndexKind::Regular) {
            return Err(IndexError::Unsupported(
                "segment header kind disagrees with its index metadata".into(),
            ));
        }
        let dummy = Sym(r.u32());
        let n_gaps = r.u32() as usize;
        let maxgap = MaxGapTable::from_entries((0..n_gaps).map(|_| {
            let sym = Sym(r.u32());
            let gap = r.u32();
            (sym, gap)
        }));
        let n_childless = r.u32() as usize;
        let childless = (0..n_childless).map(|_| Sym(r.u32())).collect();
        let build_stats = BuildStats {
            trie_nodes: r.u64() as usize,
            trie_paths: r.u64() as usize,
            sequences: r.u64(),
            max_path_sharing: r.u64(),
            underflows: r.u64(),
            total_seq_len: r.u64(),
        };
        Ok(PrixIndex {
            kind,
            maxgap,
            dummy,
            build_stats,
            doc_base: reader.doc_base(),
            childless,
            backing: Backing::Seg(reader),
        })
    }
}

/// Encodes one document's refinement record for an immutable segment:
/// everything [`PrixIndex::load_doc`] serves (NPS, LPS, leaf list, the
/// ext→orig map for EPIndex tiers, and the original node count), in one
/// contiguous blob the segment's record section stores verbatim.
pub(crate) fn encode_doc_record(
    nps: &[PostNum],
    lps: &[Sym],
    leaves: &[(Sym, PostNum)],
    orig_map: Option<&[PostNum]>,
    n_orig: u32,
) -> Vec<u8> {
    debug_assert_eq!(nps.len(), lps.len());
    let mut w = codec::Writer::new();
    w.u32(nps.len() as u32);
    for &v in nps {
        w.u32(v);
    }
    for &s in lps {
        w.u32(s.0);
    }
    w.u32(leaves.len() as u32);
    for &(s, p) in leaves {
        w.u32(s.0);
        w.u32(p);
    }
    match orig_map {
        Some(m) => {
            w.u32(m.len() as u32);
            for &v in m {
                w.u32(v);
            }
        }
        None => w.u32(0),
    }
    w.u32(n_orig);
    w.0
}

/// Inverse of [`encode_doc_record`]. With `need_leaf_data` unset the
/// LPS and leaf list are skipped without allocating, mirroring the
/// record-store fast path.
fn decode_doc_record(bytes: &[u8], need_leaf_data: bool) -> DocData {
    let mut r = codec::Reader(bytes);
    let n = r.u32() as usize;
    let nps: Vec<PostNum> = (0..n).map(|_| r.u32()).collect();
    let (lps, leaves): (Vec<Sym>, Vec<(Sym, PostNum)>) = if need_leaf_data {
        let lps = (0..n).map(|_| Sym(r.u32())).collect();
        let nl = r.u32() as usize;
        let leaves = (0..nl)
            .map(|_| {
                let s = Sym(r.u32());
                let p = r.u32();
                (s, p)
            })
            .collect();
        (lps, leaves)
    } else {
        for _ in 0..n {
            r.u32();
        }
        let nl = r.u32() as usize;
        for _ in 0..(2 * nl) {
            r.u32();
        }
        (Vec::new(), Vec::new())
    };
    let n_map = r.u32() as usize;
    let orig_map = (n_map != 0).then(|| (0..n_map).map(|_| r.u32()).collect());
    let n_orig = r.u32();
    DocData {
        nps,
        lps,
        leaves,
        orig_map,
        n_orig,
    }
}

/// Encodes the per-tier index metadata a segment carries in its meta
/// blob: kind, dummy symbol, MaxGap table, childless-label set, and
/// build statistics. Map-shaped fields are **sorted** so the blob — and
/// therefore the whole segment file — is byte-deterministic: bulk
/// loading a collection and compacting the same documents out of the
/// mutable tier produce identical files.
pub(crate) fn encode_seg_index_meta(
    kind: IndexKind,
    dummy: Sym,
    maxgap: &MaxGapTable,
    childless: &std::collections::HashSet<Sym>,
    stats: &BuildStats,
) -> Vec<u8> {
    let mut w = codec::Writer::new();
    w.u8(match kind {
        IndexKind::Regular => 0,
        IndexKind::Extended => 1,
    });
    w.u32(dummy.0);
    let mut gaps: Vec<(Sym, PostNum)> = maxgap.entries().collect();
    gaps.sort_by_key(|&(s, _)| s.0);
    w.u32(gaps.len() as u32);
    for (sym, gap) in gaps {
        w.u32(sym.0);
        w.u32(gap);
    }
    let mut cl: Vec<u32> = childless.iter().map(|s| s.0).collect();
    cl.sort_unstable();
    w.u32(cl.len() as u32);
    for s in cl {
        w.u32(s);
    }
    w.u64(stats.trie_nodes as u64);
    w.u64(stats.trie_paths as u64);
    w.u64(stats.sequences);
    w.u64(stats.max_path_sharing);
    w.u64(stats.underflows);
    w.u64(stats.total_seq_len);
    w.0
}

pub(crate) struct QueryPlan {
    pub(crate) seq: PruferSeq,
    pub(crate) edges: Vec<EdgeKind>,
    pub(crate) leaves: Vec<(Sym, PostNum)>,
    pub(crate) qtree: XmlTree,
    /// For extended-query plans: `ext_of_orig[orig - 1]` = extended
    /// postorder of the original query node.
    pub(crate) ext_of_orig: Option<Vec<PostNum>>,
    pub(crate) n_orig_query: u32,
    /// Leaf-matching phase can be skipped (every query label already
    /// participated in subsequence matching).
    pub(crate) skip_leaf: bool,
}

/// Projects an embedding in plan numbering (possibly extended, possibly
/// over the extended document) down to original query and document
/// postorder numbers. Returns `None` if any original query node lands on
/// a document dummy (cannot happen for well-formed plans; defensive).
pub(crate) fn project_embedding(
    plan: &QueryPlan,
    data: &DocData,
    img: &[PostNum],
) -> Option<Vec<PostNum>> {
    let m = plan.n_orig_query as usize;
    let mut out = Vec::with_capacity(m);
    match (&plan.ext_of_orig, &data.orig_map) {
        (None, _) => {
            debug_assert!(data.orig_map.is_none());
            out.extend_from_slice(img);
        }
        // Extended query over an extended document (EPIndex).
        (Some(map), Some(doc_map)) => {
            for orig_q in 1..=m {
                let ext_q = map[orig_q - 1];
                let ext_img = img[(ext_q - 1) as usize];
                let orig_img = doc_map[(ext_img - 1) as usize];
                if orig_img == 0 {
                    return None; // image is a dummy: not a real embedding
                }
                out.push(orig_img);
            }
        }
        // Extended query over a *regular* document (§4.4 leaf-extended
        // plan): images are already original postorder numbers.
        (Some(map), None) => {
            for orig_q in 1..=m {
                let ext_q = map[orig_q - 1];
                out.push(img[(ext_q - 1) as usize]);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_storage::Pager;

    fn small_collection() -> Collection {
        let mut c = Collection::new();
        c.add_xml("<dblp><inproceedings><author>Jim Gray</author><year>1990</year></inproceedings></dblp>")
            .unwrap();
        c.add_xml(
            "<dblp><inproceedings><author>Ann</author><year>1990</year></inproceedings></dblp>",
        )
        .unwrap();
        c.add_xml("<dblp><article><author>Jim Gray</author><year>1991</year></article></dblp>")
            .unwrap();
        c.add_xml("<dblp><www><editor>E</editor><url>u</url></www></dblp>")
            .unwrap();
        c
    }

    /// Drains [`PrixIndex::execute`], matches in canonical order.
    fn run(idx: &PrixIndex, q: &TwigQuery, opts: &ExecOpts) -> (Vec<TwigMatch>, QueryStats) {
        let mut stream = idx.execute(q, opts, None).unwrap();
        let mut matches = Vec::new();
        while let Some(m) = stream.next_match().unwrap() {
            matches.push(m);
        }
        matches.sort();
        (matches, stream.stats())
    }

    fn build_index(c: &mut Collection, kind: IndexKind) -> PrixIndex {
        let dummy = c.intern("\u{1}dummy");
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 256));
        PrixIndex::build(pool, c, kind, LabelingMode::Exact, dummy).unwrap()
    }

    #[test]
    fn value_query_finds_the_right_documents() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(
            r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#,
            &mut syms,
        )
        .unwrap();
        let (matches, stats) = run(&idx, &q, &ExecOpts::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 0);
        assert!(stats.range_queries > 0);
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn structural_query_on_regular_index() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        // //www[./editor]/url — leaves editor and url hang on '/' edges,
        // but they are leaves, so RP cannot verify their labels...
        // actually it can: via the leaf-matching phase. The query's
        // needs_extended is false only if all leaf edges are Child: here
        // they are.
        let q = crate::xpath::parse_xpath("//www[./editor]/url", &mut syms).unwrap();
        assert!(!q.needs_extended());
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 3);
    }

    #[test]
    fn regular_index_rejects_value_queries() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(r#"//author[text()="Jim Gray"]"#, &mut syms).unwrap();
        assert!(matches!(
            idx.execute(&q, &ExecOpts::new(), None),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn embeddings_point_at_real_nodes() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(r#"//author[text()="Jim Gray"]"#, &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        assert_eq!(matches.len(), 2);
        for m in &matches {
            let tree = c.doc(m.doc);
            // Query postorder: "Jim Gray"=1, author=2.
            let author = syms.lookup("author").unwrap();
            let value = syms.lookup("Jim Gray").unwrap();
            assert_eq!(tree.label_at(m.embedding[1]), author);
            assert_eq!(tree.label_at(m.embedding[0]), value);
        }
    }

    #[test]
    fn wildcard_descendant_query() {
        let mut c = Collection::new();
        c.add_xml("<S><X><NP><SYM>s</SYM></NP></X></S>").unwrap();
        c.add_xml("<S><NP><SYM>s</SYM></NP></S>").unwrap();
        c.add_xml("<S><NP><X><SYM>s</SYM></X></NP></S>").unwrap();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        // //S//NP/SYM: SYM must be a child of NP, NP a descendant of S.
        let q = crate::xpath::parse_xpath("//S//NP/SYM", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        let docs: Vec<DocId> = matches.iter().map(|m| m.doc).collect();
        assert_eq!(docs, vec![0, 1], "doc 2 has SYM under X, not under NP");
    }

    #[test]
    fn star_distance_query() {
        let mut c = Collection::new();
        c.add_xml("<a><m><b><x/></b></m></a>").unwrap(); // a/*/b: depth 2 ✓
        c.add_xml("<a><b><x/></b></a>").unwrap(); // depth 1 ✗
        c.add_xml("<a><m><n><b><x/></b></n></m></a>").unwrap(); // depth 3 ✗
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//a/*/b/x", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        let docs: Vec<DocId> = matches.iter().map(|m| m.doc).collect();
        assert_eq!(docs, vec![0]);
    }

    #[test]
    fn absolute_query_pins_the_root() {
        let mut c = Collection::new();
        c.add_xml("<a><b><t>v</t></b></a>").unwrap();
        c.add_xml("<r><a><b><t>v</t></b></a></r>").unwrap();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q_rel = crate::xpath::parse_xpath("//a/b/t", &mut syms).unwrap();
        let (m_rel, _) = run(&idx, &q_rel, &ExecOpts::new());
        assert_eq!(m_rel.len(), 2);
        let q_abs = crate::xpath::parse_xpath("/a/b/t", &mut syms).unwrap();
        let (m_abs, _) = run(&idx, &q_abs, &ExecOpts::new());
        assert_eq!(m_abs.len(), 1);
        assert_eq!(m_abs[0].doc, 0);
    }

    #[test]
    fn maxgap_pruning_does_not_change_results() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath(
            r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#,
            &mut syms,
        )
        .unwrap();
        let (with, s_with) = run(&idx, &q, &ExecOpts::new());
        let (without, s_without) = run(&idx, &q, &ExecOpts::new().without_maxgap());
        assert_eq!(with, without, "pruning must be lossless (Theorem 4)");
        assert!(s_with.nodes_scanned <= s_without.nodes_scanned);
    }

    #[test]
    fn single_node_query_on_extended_index() {
        let mut c = small_collection();
        let idx = build_index(&mut c, IndexKind::Extended);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//editor", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 3);
    }

    #[test]
    fn duplicate_sequences_share_one_trie_path() {
        let mut c = Collection::new();
        for _ in 0..10 {
            c.add_xml("<a><b><c/></b></a>").unwrap();
        }
        let idx = build_index(&mut c, IndexKind::Regular);
        let st = idx.build_stats();
        assert_eq!(st.sequences, 10);
        assert_eq!(st.trie_paths, 1);
        assert_eq!(st.max_path_sharing, 10);
        // All ten docs match //a/b.
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//a/b/c", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        assert_eq!(matches.len(), 10);
    }

    #[test]
    fn no_false_alarms_on_split_twigs() {
        // The ViST false-alarm scenario of Figure 1(b): a query twig
        // whose branches appear in the document but under *different*
        // parents must not match.
        let mut c = Collection::new();
        // Doc1: P(Q, R) — the twig is present.
        c.add_xml("<P><Q><x/></Q><R><y/></R></P>").unwrap();
        // Doc2: P(Q), P(R) under different P instances.
        c.add_xml("<root><P><Q><x/></Q></P><P><R><y/></R></P></root>")
            .unwrap();
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//P[./Q]/R", &mut syms).unwrap();
        let (matches, _) = run(&idx, &q, &ExecOpts::new());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].doc, 0, "doc 1 would be a ViST false alarm");
    }

    #[test]
    fn fine_maxgap_prunes_at_least_as_much_and_is_lossless() {
        // Data where the *global* MaxGap of a label is inflated by one
        // wide node, while most occurrences are narrow: the per-node
        // fine gaps (§5.4) prune candidates the global bound keeps.
        let mut c = Collection::new();
        // One wide `a` (many children) inflates MaxGap(a)...
        c.add_xml("<a><b><v/></b><x><v/></x><x><v/></x><x><v/></x><x><v/></x><c><v/></c></a>")
            .unwrap();
        // ...while many narrow `a`s are where the query misses.
        for _ in 0..30 {
            c.add_xml("<root><a><b><v/></b></a><junk><c><v/></c></junk></root>")
                .unwrap();
        }
        let idx = build_index(&mut c, IndexKind::Regular);
        let mut syms = c.symbols().clone();
        let q = crate::xpath::parse_xpath("//a[./b]/c", &mut syms).unwrap();
        let fine = run(&idx, &q, &ExecOpts::new());
        let coarse = run(&idx, &q, &ExecOpts::new().without_fine_maxgap());
        assert_eq!(fine.0, coarse.0, "fine pruning must be lossless");
        assert_eq!(fine.0.len(), 1, "only the wide document matches");
        assert!(
            fine.1.maxgap_pruned >= coarse.1.maxgap_pruned,
            "fine gaps prune at least as much ({} vs {})",
            fine.1.maxgap_pruned,
            coarse.1.maxgap_pruned
        );
    }
}
