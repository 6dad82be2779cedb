//! The streaming executor's contract:
//!
//! * **Oracle equivalence** — for every query of the paper workload, on
//!   both the RPIndex and the EPIndex, draining `PrixIndex::execute`
//!   yields exactly the naive oracle's match set with self-consistent
//!   counters, and the snapshot read path returns the same matches in
//!   canonical `(doc, embedding)` order with the drained stream's
//!   counters.
//! * **Limit pushdown** — on a high-fanout collection, `limit = 10`
//!   performs strictly fewer range queries, scans strictly fewer trie
//!   nodes, and reads strictly fewer buffer-pool pages than the
//!   unlimited run (the observable win of stopping the trie descent).
//! * **I/O attribution** — each `QueryOutcome.io` in a concurrent
//!   batch counts only its own query's page accesses.

use prix::core::index::ExecOpts;
use prix::core::{
    naive, EngineConfig, IndexKind, PrixEngine, PrixIndex, QueryStats, TwigMatch, TwigQuery,
};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::xml::Collection;

/// Drains a stream and returns its matches plus final stats.
fn drain(idx: &PrixIndex, q: &TwigQuery, opts: &ExecOpts) -> (Vec<TwigMatch>, QueryStats, bool) {
    let mut stream = idx.execute(q, opts, None).unwrap();
    let mut out = Vec::new();
    while let Some(m) = stream.next_match().unwrap() {
        out.push(m);
    }
    (out, stream.stats(), stream.exhausted())
}

fn sorted(mut v: Vec<TwigMatch>) -> Vec<TwigMatch> {
    v.sort();
    v
}

/// Every ordered embedding the naive oracle finds, in canonical order.
fn oracle(collection: &Collection, q: &TwigQuery) -> Vec<TwigMatch> {
    let mut out: Vec<TwigMatch> = collection
        .iter()
        .flat_map(|(doc, tree)| {
            naive::naive_ordered(tree, q)
                .into_iter()
                .map(move |embedding| TwigMatch { doc, embedding })
        })
        .collect();
    out.sort();
    out
}

/// For every paper-workload query, on every index that supports it:
/// the drained stream equals the naive oracle, and the snapshot read
/// path reports the same answer and counters.
fn check_equivalence(ds: Dataset) {
    let collection = generate(ds, 0.03, 7);
    let mut engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let queries: Vec<_> = queries_for(ds)
        .iter()
        .map(|pq| (pq.id, engine.parse_query(pq.xpath).unwrap()))
        .collect();
    let snap = engine.snapshot();
    let mut executed = 0;
    for (id, q) in &queries {
        let expected = oracle(engine.collection(), q);
        for (name, idx) in [
            ("RPIndex", engine.rp_index()),
            ("EPIndex", engine.ep_index()),
        ] {
            let Some(idx) = idx else { continue };
            // Some queries run on one flavor only (value predicates need
            // the EPIndex, single-node queries the extended plan).
            if idx.execute(q, &ExecOpts::new(), None).is_err() {
                continue;
            }
            executed += 1;
            let (streamed, stats, exhausted) = drain(idx, q, &ExecOpts::new());
            assert!(exhausted, "{id} on {name}: unlimited stream must drain");
            assert_eq!(
                sorted(streamed),
                expected,
                "{id} on {name}: match set differs from the naive oracle"
            );
            assert_eq!(stats.matches, expected.len() as u64, "{id} on {name}");
            assert!(
                stats.candidates >= stats.refined && stats.refined >= stats.matches,
                "{id} on {name}: candidates >= refined >= matches: {stats:?}"
            );
        }
        // The snapshot read path over the same single tier: the §5.6
        // choice, canonical order, and exactly the drained counters.
        let out = snap.query(q).unwrap();
        assert_eq!(out.matches, expected, "{id}: snapshot read");
        assert!(!out.truncated, "{id}: unlimited read is never truncated");
        let idx = match out.index_used {
            IndexKind::Regular => engine.rp_index(),
            IndexKind::Extended => engine.ep_index(),
        };
        let (_, stats, _) = drain(idx.unwrap(), q, &ExecOpts::new());
        assert_eq!(
            out.stats.counters_only(),
            stats.counters_only(),
            "{id}: snapshot counters differ from the drained stream"
        );
    }
    assert!(executed > 0, "workload exercised no index at all");
}

#[test]
fn stream_equals_naive_oracle_dblp() {
    check_equivalence(Dataset::Dblp);
}

#[test]
fn stream_equals_naive_oracle_swissprot() {
    check_equivalence(Dataset::Swissprot);
}

#[test]
fn stream_equals_naive_oracle_treebank() {
    check_equivalence(Dataset::Treebank);
}

/// A collection where `//a/b` has many matches spread over many
/// distinct trie paths: every document gets a different shape (varying
/// sibling fanout and padding labels), so the descent must keep issuing
/// range queries to find more candidates.
fn high_fanout_collection(docs: usize) -> Collection {
    let mut c = Collection::new();
    for i in 0..docs {
        let mut xml = String::from("<r>");
        // Padding siblings vary the Prüfer sequence per document so
        // documents do not share one trie path.
        for p in 0..(i % 7) {
            xml.push_str(&format!("<p{p}>x</p{p}>"));
        }
        for _ in 0..(1 + i % 3) {
            xml.push_str("<a><b>v</b></a>");
        }
        xml.push_str("</r>");
        c.add_xml(&xml).unwrap();
    }
    c
}

/// The tentpole's observable win: `limit = 10` does strictly less
/// filtering *and* strictly less I/O than the unlimited run.
#[test]
fn limit_pushdown_strictly_reduces_work_and_io() {
    let engine = PrixEngine::build(high_fanout_collection(120), EngineConfig::default()).unwrap();
    let mut syms = engine.collection().symbols().clone();
    let q = prix::core::parse_xpath("//a/b", &mut syms).unwrap();
    let snap = engine.snapshot();

    // Cold cache for each run so `io.logical_reads` is comparable.
    engine.clear_cache().unwrap();
    let unlimited = snap.query_opts(&q, &ExecOpts::new()).unwrap();
    assert!(
        unlimited.matches.len() > 100,
        "workload too small: {} matches",
        unlimited.matches.len()
    );
    assert!(!unlimited.truncated);

    engine.clear_cache().unwrap();
    let limited = snap
        .query_opts(&q, &ExecOpts::new().with_limit(10))
        .unwrap();
    assert_eq!(limited.matches.len(), 10);
    assert!(limited.truncated);

    assert!(
        limited.stats.range_queries < unlimited.stats.range_queries,
        "range queries not reduced: {} vs {}",
        limited.stats.range_queries,
        unlimited.stats.range_queries
    );
    assert!(
        limited.stats.nodes_scanned < unlimited.stats.nodes_scanned,
        "trie-node scans not reduced: {} vs {}",
        limited.stats.nodes_scanned,
        unlimited.stats.nodes_scanned
    );
    assert!(
        limited.io.logical_reads < unlimited.io.logical_reads,
        "page reads not reduced: {} vs {}",
        limited.io.logical_reads,
        unlimited.io.logical_reads
    );
    // The limited run's matches are a prefix of the unlimited stream,
    // returned in canonical order.
    assert_eq!(limited.index_used, IndexKind::Regular);
    let (streamed, _, _) = drain(engine.rp_index().unwrap(), &q, &ExecOpts::new());
    assert_eq!(limited.matches, sorted(streamed[..10].to_vec()));
}

/// Per-query I/O attribution: in a concurrent batch, each outcome's
/// `io` equals the same query run alone — other workers' page accesses
/// never leak in.
#[test]
fn batch_io_is_attributed_per_query() {
    let collection = generate(Dataset::Dblp, 0.03, 7);
    let mut engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let queries: Vec<_> = queries_for(Dataset::Dblp)
        .iter()
        .map(|pq| engine.parse_query(pq.xpath).unwrap())
        .collect();

    // Serial baseline: logical reads are deterministic per query
    // (independent of cache temperature, unlike physical reads).
    let serial: Vec<u64> = queries
        .iter()
        .map(|q| engine.query(q).unwrap().io.logical_reads)
        .collect();

    // Interleave the queries across 4 workers, several times over.
    let many: Vec<TwigQuery> = (0..4).flat_map(|_| queries.iter().cloned()).collect();
    let outs = engine.snapshot().query_batch(&many, 4).unwrap();
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.io.logical_reads,
            serial[i % serial.len()],
            "query {} in batch read a different page count than alone",
            i % serial.len()
        );
    }
}
