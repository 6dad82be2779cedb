//! Bibliography search over a DBLP-like corpus — the workload from the
//! paper's introduction: value predicates, ordered vs unordered twigs,
//! and the RPIndex/EPIndex optimizer choice (§5.6).
//!
//! ```sh
//! cargo run --release --example bibliography
//! ```

use prix::core::{EngineConfig, PrixEngine};
use prix::datagen::{dblp, Dataset};

fn main() {
    // A synthetic DBLP-like corpus: ~4000 bibliography records with the
    // paper's planted answers (Jim Gray, the "Semantic Analysis
    // Patterns" title, 21 www records with editors).
    let collection = prix::datagen::generate(Dataset::Dblp, 0.2, 42);
    let stats = collection.stats();
    println!(
        "corpus: {} records, {} elements, {} attributes, depth {}",
        stats.sequences, stats.elements, stats.attributes, stats.max_depth
    );

    let mut engine = PrixEngine::build(collection, EngineConfig::default()).expect("engine build");
    if let Some(rp) = engine.rp_index() {
        let b = rp.build_stats();
        println!(
            "RPIndex: {} trie nodes for {} sequences ({} distinct paths, best path shared by {})",
            b.trie_nodes, b.sequences, b.trie_paths, b.max_path_sharing
        );
    }

    // Value lookup: which papers did Jim Gray write in 1990?
    let q1 = engine
        .parse_query(r#"//inproceedings[./author="Jim Gray"][./year="1990"]"#)
        .unwrap();
    let ordered = engine.query(&q1).unwrap();
    println!(
        "\nJim Gray 1990 inproceedings (ordered twig): {} — via {}, {} pages read",
        ordered.matches.len(),
        ordered.index_used,
        ordered.io.physical_reads
    );

    // Unordered matching also accepts records that list the year before
    // the author (§5.7 branch arrangements).
    let unordered = engine.snapshot().query_unordered(&q1).unwrap();
    println!(
        "Jim Gray 1990 inproceedings (unordered twig): {}",
        unordered.matches.len()
    );

    // Structural query: websites with an editor. No values, so the
    // optimizer picks the RPIndex.
    let q2 = engine.parse_query("//www[./editor]/url").unwrap();
    let out = engine.query(&q2).unwrap();
    println!(
        "\nwww records with editors: {} — via {} ({} candidates, {} survived refinement)",
        out.matches.len(),
        out.index_used,
        out.stats.candidates,
        out.stats.refined
    );

    // Exact-title point lookup: EPIndex again, extremely selective.
    engine.clear_cache().unwrap();
    let q3 = engine
        .parse_query(r#"//title[text()="Semantic Analysis Patterns"]"#)
        .unwrap();
    let out = engine.query(&q3).unwrap();
    println!(
        "exact title lookup: {} match, cold-cache IO = {} pages, {:?}",
        out.matches.len(),
        out.io.physical_reads,
        out.elapsed
    );

    // The generators are a library too: build a custom-size corpus.
    let small = dblp::generate(&dblp::DblpConfig {
        records: 500,
        seed: 7,
    });
    println!(
        "\ncustom corpus: {} records, {} total nodes",
        small.len(),
        small.total_nodes()
    );
}
