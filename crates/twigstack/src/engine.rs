//! Routed [`prix_core::plan::QueryEngine`] adapters for the
//! TwigStack family. A [`Substrate`] (per-tag streams with their
//! XB-trees + per-document postorder maps) is built once over the
//! shared collection; [`TwigStackEngine`] then answers queries with
//! either algorithm, translating region-encoded assignments back into
//! PRIX's `(doc, postorder embedding)` match representation.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use prix_core::plan::{EngineId, QueryEngine};
use prix_core::query::TwigQuery;
use prix_core::{ExecOpts, IndexKind, QueryOutcome, QueryStats, TwigMatch};
use prix_storage::{BufferPool, IoScope, StorageError};
use prix_xml::{Collection, DocId};

use crate::join::{assignment_postorders, Algorithm, TwigJoin};
use crate::pos::encode_collection;
use crate::stream::StreamStore;

/// The shared per-collection substrate both algorithms read:
/// region-encoded streams (whose chunks are also the XB-tree leaves),
/// and the sorted `Right` values of every document (the map from
/// region encoding back to postorder numbers).
pub struct Substrate {
    streams: StreamStore,
    doc_rights: HashMap<DocId, Vec<u64>>,
}

impl Substrate {
    /// Region-encodes `collection` and builds streams + XB-trees in
    /// `pool`. This is the one way the TwigStack family's storage is
    /// built.
    pub fn build(
        pool: Arc<BufferPool>,
        collection: &Collection,
    ) -> Result<Substrate, StorageError> {
        let raw = encode_collection(collection);
        let streams = StreamStore::build(pool, &raw)?;
        let mut doc_rights: HashMap<DocId, Vec<u64>> = HashMap::new();
        for elems in raw.values() {
            for e in elems {
                doc_rights.entry(e.doc).or_default().push(e.right);
            }
        }
        for rights in doc_rights.values_mut() {
            rights.sort_unstable();
        }
        Ok(Substrate {
            streams,
            doc_rights,
        })
    }

    /// The element streams and their XB-trees.
    pub fn streams(&self) -> &StreamStore {
        &self.streams
    }
}

/// One algorithm of the family bound to a substrate.
pub struct TwigStackEngine {
    sub: Arc<Substrate>,
    alg: Algorithm,
}

impl TwigStackEngine {
    /// A TwigStack (plain streams) engine.
    pub fn twigstack(sub: Arc<Substrate>) -> Self {
        TwigStackEngine {
            sub,
            alg: Algorithm::TwigStack,
        }
    }

    /// A TwigStackXB (XB-tree skipping) engine.
    pub fn twigstack_xb(sub: Arc<Substrate>) -> Self {
        TwigStackEngine {
            sub,
            alg: Algorithm::TwigStackXB,
        }
    }
}

impl QueryEngine for TwigStackEngine {
    fn id(&self) -> EngineId {
        match self.alg {
            Algorithm::TwigStack => EngineId::TwigStack,
            Algorithm::TwigStackXB => EngineId::TwigStackXb,
        }
    }

    fn supports(&self, _q: &TwigQuery) -> bool {
        true
    }

    fn execute(&self, q: &TwigQuery, opts: &ExecOpts) -> prix_core::index::Result<QueryOutcome> {
        let scope = IoScope::begin();
        let start = Instant::now();
        let result = TwigJoin::new(&self.sub.streams).execute(q, self.alg)?;
        let mut matches: Vec<TwigMatch> = Vec::with_capacity(result.matches.len());
        for asg in &result.matches {
            let doc = asg[0].doc;
            let rights = &self.sub.doc_rights[&doc];
            matches.push(TwigMatch {
                doc,
                embedding: assignment_postorders(asg, rights),
            });
        }
        matches.sort_unstable_by(|a, b| (a.doc, &a.embedding).cmp(&(b.doc, &b.embedding)));
        matches.dedup();
        let mut truncated = false;
        if let Some(k) = opts.limit {
            if matches.len() > k {
                matches.truncate(k);
                truncated = true;
            }
        }
        let stats = QueryStats {
            range_queries: result.stats.drilldowns,
            nodes_scanned: result.stats.elements_scanned,
            candidates: result.stats.merged_candidates,
            refined: result.stats.matches,
            matches: matches.len() as u64,
            ..QueryStats::default()
        };
        Ok(QueryOutcome {
            matches,
            stats,
            index_used: IndexKind::Regular,
            io: scope.end(),
            elapsed: start.elapsed(),
            truncated,
            engine: self.id(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_storage::{Pager, PAGE_SIZE};

    use crate::pos::Element;

    #[test]
    fn singleton_tags_cost_their_elements_not_a_page_each() {
        // 10,000 documents, each one element with a tag of its own: the
        // shape of a collection's value tags, most of which occur once.
        let mut collection = Collection::new();
        for i in 0..10_000 {
            collection.add_xml(&format!("<t{i}/>")).unwrap();
        }
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        let empty = pool.pager().num_pages();
        let sub = Substrate::build(Arc::clone(&pool), &collection).unwrap();
        let elements = 10_000u64;
        let pages = pool.pager().num_pages() - empty;
        let floor =
            (elements * Element::ENCODED_LEN as u64 + PAGE_SIZE as u64 - 1) / PAGE_SIZE as u64;
        // The slack is the record store's 4-byte cell header and slot
        // per one-element chunk (~5 pages here). An XB page per tag
        // would be 10,000 pages.
        assert!(pages <= floor + 8, "{pages} pages for {elements} elements");
        assert_eq!(
            sub.streams()
                .len(collection.symbols().lookup("t42").unwrap()),
            1
        );
    }
}
