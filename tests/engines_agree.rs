//! Cross-engine agreement: PRIX, TwigStack, TwigStackXB, ViST
//! (verified), the scan matcher, and the naive oracle all return the
//! same twig-match counts for the paper's workload — and, routed
//! through the planner ([`prix::core::Router`]), all engines return
//! *bit-identical* canonical match vectors. The routed half runs the
//! paper workload plus random twigs via `prix-testkit`, with pinned
//! replay seeds at the bottom of the file.

use std::sync::Arc;

use prix::core::query::TwigQuery;
use prix::core::{
    naive, prix_embedding_exact, AltProvider, EngineChoice, EngineConfig, EngineId, EngineSnapshot,
    ExecOpts, NoAlts, PrixEngine, QueryEngine, TwigMatch,
};
use prix::datagen::{generate, queries::queries_for, Dataset};
use prix::storage::{BufferPool, Pager};
use prix::twigstack::{Algorithm, Substrate, TwigJoin, TwigStackEngine};
use prix::vist::{VistEngine, VistIndex};
use prix::xml::{Collection, NodeKind, SymbolTable, XmlTree};
use prix_testkit::{check, from_fn, replay, Config, Generator, TestRng};

fn check_counts(ds: Dataset) {
    let collection = generate(ds, 0.03, 7);
    let mut engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();

    // TwigStack substrate.
    let pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
    let sub = Substrate::build(pool, &collection).unwrap();

    // ViST substrate.
    let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
    let vist = VistIndex::build(vist_pool, &collection).unwrap();

    for pq in queries_for(ds) {
        let q = engine.parse_query(pq.xpath).unwrap();
        let expected = naive::naive_count(engine.collection(), &q) as u64;

        let prix_n = engine.query(&q).unwrap().matches.len() as u64;
        assert_eq!(prix_n, expected, "{}: PRIX", pq.id);

        let ts = TwigJoin::new(sub.streams())
            .execute(&q, Algorithm::TwigStack)
            .unwrap();
        assert_eq!(ts.stats.matches, expected, "{}: TwigStack", pq.id);

        let xbj = TwigJoin::new(sub.streams())
            .execute(&q, Algorithm::TwigStackXB)
            .unwrap();
        assert_eq!(xbj.stats.matches, expected, "{}: TwigStackXB", pq.id);

        let vo = vist.execute(&q, &collection).unwrap();
        assert_eq!(vo.verified_matches, expected, "{}: ViST verified", pq.id);
        // Native ViST never loses answers (no false dismissals).
        for m in &engine.query(&q).unwrap().matches {
            assert!(
                vo.candidate_docs.contains(&m.doc),
                "{}: ViST missed doc {}",
                pq.id,
                m.doc
            );
        }
    }
}

#[test]
fn dblp_engines_agree() {
    check_counts(Dataset::Dblp);
}

#[test]
fn swissprot_engines_agree() {
    check_counts(Dataset::Swissprot);
}

#[test]
fn treebank_engines_agree() {
    check_counts(Dataset::Treebank);
}

/// Most tags of a real collection are leaf values that occur once; each
/// of their streams is a single chunk whose XB-tree has no internal
/// page. TwigStackXB must still return exactly the oracle's embeddings,
/// on singleton streams and on the multi-chunk streams beside them.
#[test]
fn twigstackxb_equals_oracle_on_singleton_value_tags() {
    let mut collection = Collection::new();
    for i in 0..2_000 {
        collection
            .add_xml(&format!(
                "<book><title>T{i}</title><year>{}</year><author>A{}</author></book>",
                1990 + i % 30,
                i % 700
            ))
            .unwrap();
    }
    let sub = Arc::new(
        Substrate::build(
            Arc::new(BufferPool::new(Pager::in_memory(), 256)),
            &collection,
        )
        .unwrap(),
    );
    let xb = TwigStackEngine::twigstack_xb(sub);
    let mut syms = collection.symbols().clone();
    for xpath in [
        r#"//book[./title="T17"]/year"#,
        r#"//book[./title="T1999"]/author"#,
        r#"//book[./author="A5"]"#,
        r#"//book[./year="1995"]/author"#,
        r#"//title[text()="T0"]"#,
        "//book/year",
        r#"//book[./title="T3"]//author"#,
    ] {
        let q = prix::core::xpath::parse_xpath(xpath, &mut syms).unwrap();
        let mut want: Vec<TwigMatch> = collection
            .iter()
            .flat_map(|(doc, tree)| {
                naive::naive_ordered(tree, &q)
                    .into_iter()
                    .map(move |embedding| TwigMatch { doc, embedding })
            })
            .collect();
        want.sort_unstable_by(|a, b| (a.doc, &a.embedding).cmp(&(b.doc, &b.embedding)));
        want.dedup();
        let got = xb.execute(&q, &ExecOpts::new()).unwrap();
        assert!(!want.is_empty(), "{xpath}: the oracle finds matches");
        assert_eq!(got.matches, want, "{xpath}");
    }
}

// ---------------------------------------------------------------------
// Routed agreement: the planner's answer is the answer.
// ---------------------------------------------------------------------

/// An eager [`AltProvider`] for tests, which own the collection and can
/// afford to build every alternative substrate up front.
struct TestAlts {
    vist: Arc<dyn QueryEngine>,
    twigstack: Arc<dyn QueryEngine>,
    twigstack_xb: Arc<dyn QueryEngine>,
}

impl TestAlts {
    fn build(collection: &Collection) -> TestAlts {
        let collection = Arc::new(collection.clone());
        let vist_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
        let vist = VistEngine::build(vist_pool, Arc::clone(&collection)).unwrap();
        let ts_pool = Arc::new(BufferPool::new(Pager::in_memory(), 2000));
        let sub = Arc::new(Substrate::build(ts_pool, &collection).unwrap());
        TestAlts {
            vist: Arc::new(vist),
            twigstack: Arc::new(TwigStackEngine::twigstack(Arc::clone(&sub))),
            twigstack_xb: Arc::new(TwigStackEngine::twigstack_xb(sub)),
        }
    }
}

impl AltProvider for TestAlts {
    fn alt_engine(&self, id: EngineId) -> prix::core::index::Result<Arc<dyn QueryEngine>> {
        match id {
            EngineId::Vist => Ok(Arc::clone(&self.vist)),
            EngineId::TwigStack => Ok(Arc::clone(&self.twigstack)),
            EngineId::TwigStackXb => Ok(Arc::clone(&self.twigstack_xb)),
            EngineId::PrixRp | EngineId::PrixEp => Err(prix::core::index::IndexError::Unsupported(
                "not an alternative engine".into(),
            )),
        }
    }
}

fn doc_set(matches: &[TwigMatch]) -> Vec<u32> {
    let mut d: Vec<u32> = matches.iter().map(|m| m.doc).collect();
    d.sort_unstable();
    d.dedup();
    d
}

/// The routed-agreement contract for one query:
///
/// * cost-based routing is bit-identical to forced PRIX;
/// * every forced alternative engine returns the identical canonical
///   match vector when PRIX's embedding set is exact
///   ([`prix_embedding_exact`]), and otherwise the same document set
///   with PRIX's matches as a subset (PRIX enumerates fewer embeddings
///   for `//` at a branching node — Definition 4's
///   frequency-consistency pins the branch image);
/// * with a limit, the planner stays on PRIX (no limit pushdown in the
///   alternative joins).
fn assert_routing_agrees(snap: &EngineSnapshot, q: &TwigQuery, alts: &TestAlts, tag: &str) {
    let opts = ExecOpts::new();
    let routed = snap.query_routed(q, &opts, None, alts).unwrap();
    let prix = snap
        .query_routed(q, &opts, Some(EngineChoice::Prix), alts)
        .unwrap();
    assert!(!routed.report.forced, "{tag}: routed plan marked forced");
    assert!(prix.report.forced, "{tag}: forced plan not marked forced");
    assert_eq!(
        routed.outcome.matches,
        prix.outcome.matches,
        "{tag}: routed vs forced PRIX (chose {})",
        routed.report.chosen.label()
    );

    for id in [EngineId::Vist, EngineId::TwigStack, EngineId::TwigStackXb] {
        let forced = snap
            .query_routed(q, &opts, Some(EngineChoice::Forced(id)), alts)
            .unwrap();
        assert_eq!(forced.outcome.engine, id, "{tag}: wrong engine ran");
        if prix_embedding_exact(q) {
            assert_eq!(
                forced.outcome.matches,
                prix.outcome.matches,
                "{tag}: {} vs PRIX (exact embeddings)",
                id.label()
            );
        } else {
            assert_eq!(
                doc_set(&forced.outcome.matches),
                doc_set(&prix.outcome.matches),
                "{tag}: {} document set",
                id.label()
            );
            for m in &prix.outcome.matches {
                assert!(
                    forced.outcome.matches.contains(m),
                    "{tag}: {} lost a PRIX match in doc {}",
                    id.label(),
                    m.doc
                );
            }
        }
    }

    // A limit pins routing to PRIX: the alternatives cannot push it
    // into their joins, so they are never eligible.
    let limited = snap
        .query_routed(q, &opts.with_limit(3), None, alts)
        .unwrap();
    assert!(
        limited.report.chosen.is_prix(),
        "{tag}: limited query routed off PRIX ({})",
        limited.report.chosen.label()
    );
}

fn check_routed(ds: Dataset) {
    let collection = generate(ds, 0.03, 7);
    let mut engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let alts = TestAlts::build(&collection);
    for pq in queries_for(ds) {
        let q = engine.parse_query(pq.xpath).unwrap();
        assert_routing_agrees(&engine.snapshot(), &q, &alts, pq.id);
    }
}

#[test]
fn dblp_routed_agreement() {
    check_routed(Dataset::Dblp);
}

#[test]
fn swissprot_routed_agreement() {
    check_routed(Dataset::Swissprot);
}

#[test]
fn treebank_routed_agreement() {
    check_routed(Dataset::Treebank);
}

/// Strictly ascending by `(doc, embedding)`: canonical and distinct.
fn is_canonical(matches: &[TwigMatch]) -> bool {
    matches
        .windows(2)
        .all(|w| (w[0].doc, &w[0].embedding) < (w[1].doc, &w[1].embedding))
}

/// Every PRIX read surface returns its matches in the canonical
/// `(doc, embedding)` order, limited or not — a limit decides *which*
/// matches make the cut (trie order), never the order they come back
/// in — and a direct read equals the routed PRIX read exactly.
#[test]
fn read_surfaces_return_canonical_order() {
    for ds in [Dataset::Dblp, Dataset::Swissprot, Dataset::Treebank] {
        let mut engine = PrixEngine::build(generate(ds, 0.03, 7), EngineConfig::default()).unwrap();
        let queries: Vec<(&str, TwigQuery)> = queries_for(ds)
            .iter()
            .map(|pq| (pq.id, engine.parse_query(pq.xpath).unwrap()))
            .collect();
        let all: Vec<TwigQuery> = queries.iter().map(|(_, q)| q.clone()).collect();
        let snap = engine.snapshot();
        for opts in [ExecOpts::new(), ExecOpts::new().with_limit(10)] {
            let batch = snap.query_batch_opts(&all, 2, &opts).unwrap();
            for ((id, q), batched) in queries.iter().zip(&batch) {
                let tag = format!("{id} limit {:?}", opts.limit);
                let direct = snap.query_opts(q, &opts).unwrap();
                let routed = snap
                    .query_routed(q, &opts, Some(EngineChoice::Prix), &NoAlts)
                    .unwrap()
                    .outcome;
                let unordered = snap.query_unordered_opts(q, &opts).unwrap();
                for (surface, out) in [
                    ("query_opts", &direct),
                    ("query_batch_opts", batched),
                    ("query_routed", &routed),
                    ("query_unordered_opts", &unordered),
                ] {
                    assert!(
                        is_canonical(&out.matches),
                        "{tag}: {surface} is not in (doc, embedding) order"
                    );
                }
                assert_eq!(direct.matches, routed.matches, "{tag}: direct vs routed");
                assert_eq!(direct.truncated, routed.truncated, "{tag}: truncated");
                assert_eq!(batched.matches, direct.matches, "{tag}: batch vs direct");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random twigs (prix-testkit): same generator idiom as
// tests/property_engines.rs — construction scripts over a five-name
// alphabet, plus edge picks that mix `/`, `//`, and `*{2}`.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Step {
    label: u8,
    descend: bool,
    ups: u8,
}

fn gen_steps(rng: &mut TestRng, max_nodes: usize) -> Vec<Step> {
    let len = rng.range(1, max_nodes as u64 - 1) as usize;
    (0..len)
        .map(|_| Step {
            label: rng.below(5) as u8,
            descend: rng.chance(0.5),
            ups: rng.below(3) as u8,
        })
        .collect()
}

fn gen_doc_scripts(rng: &mut TestRng, max_docs: u64, max_nodes: usize) -> Vec<(u8, Vec<Step>)> {
    let n = rng.range(1, max_docs) as usize;
    (0..n)
        .map(|_| (rng.below(5) as u8, gen_steps(rng, max_nodes)))
        .collect()
}

fn gen_query_spec(rng: &mut TestRng, max_nodes: usize) -> (u8, Vec<Step>, Vec<u8>) {
    let root = rng.below(5) as u8;
    let steps = gen_steps(rng, max_nodes);
    let edges = (0..=max_nodes).map(|_| rng.below(10) as u8).collect();
    (root, steps, edges)
}

fn build_tree(root_label: u8, steps: &[Step], syms: &mut SymbolTable) -> XmlTree {
    let names = ["a", "b", "c", "d", "e"];
    let root = syms.intern(names[root_label as usize % 5]);
    let mut tree = XmlTree::with_root(root, NodeKind::Element);
    let mut stack = vec![tree.root()];
    for s in steps {
        let sym = syms.intern(names[s.label as usize % 5]);
        let cur = *stack.last().unwrap();
        let id = tree.add_child(cur, sym, NodeKind::Element);
        if s.descend {
            stack.push(id);
        }
        for _ in 0..s.ups {
            if stack.len() > 1 {
                stack.pop();
            }
        }
    }
    tree.seal();
    tree
}

fn build_collection(scripts: &[(u8, Vec<Step>)]) -> Collection {
    let mut collection = Collection::new();
    for (root, steps) in scripts {
        let tree = {
            let syms = collection.symbols_mut();
            build_tree(*root, steps, syms)
        };
        collection.add_tree(tree);
    }
    collection
}

fn build_query(
    root_label: u8,
    steps: &[Step],
    edge_picks: &[u8],
    syms: &mut SymbolTable,
) -> TwigQuery {
    use prix::prufer::EdgeKind;
    let tree = build_tree(root_label, steps, syms);
    let edges: Vec<EdgeKind> = (0..tree.len())
        .map(|i| match edge_picks[i % edge_picks.len()] % 10 {
            0..=6 => EdgeKind::Child,
            7 | 8 => EdgeKind::Descendant,
            _ => EdgeKind::Exactly(2),
        })
        .collect();
    TwigQuery::new(tree, edges, false)
}

type RoutedInput = (Vec<(u8, Vec<Step>)>, (u8, Vec<Step>, Vec<u8>));

fn gen_routed_input() -> impl Generator<Value = RoutedInput> {
    from_fn(|rng| (gen_doc_scripts(rng, 3, 14), gen_query_spec(rng, 5)))
}

/// Routing a random twig is indistinguishable (on canonical matches)
/// from forcing PRIX, and every forced alternative satisfies the
/// agreement contract of [`assert_routing_agrees`].
fn prop_routed_matches_forced_prix(input: &RoutedInput) -> Result<(), String> {
    let (doc_scripts, (q_root, q_steps, q_edges)) = input;
    let collection = build_collection(doc_scripts);
    let mut syms = collection.symbols().clone();
    let q = build_query(*q_root, q_steps, q_edges, &mut syms);
    let engine = PrixEngine::build(collection.clone(), EngineConfig::default()).unwrap();
    let alts = TestAlts::build(&collection);
    assert_routing_agrees(&engine.snapshot(), &q, &alts, "random twig");
    Ok(())
}

#[test]
fn routed_agreement_on_random_twigs() {
    check(
        "routed_matches_forced_prix",
        &Config::cases(48),
        &gen_routed_input(),
        prop_routed_matches_forced_prix,
    );
}

// Pinned regression seeds: replayed verbatim so a generator change or
// planner regression that breaks one of these exact inputs fails
// loudly and reproducibly.
#[test]
fn routed_agreement_replay_pinned_seeds() {
    for seed in [
        0x1CDE_2004_u64,
        0xDEAD_BEEF_0000_0001,
        0x00AB_4D5E_C0FF_EE03,
        0x7777_1234_5678_9ABC,
    ] {
        replay(seed, &gen_routed_input(), prop_routed_matches_forced_prix);
    }
}
