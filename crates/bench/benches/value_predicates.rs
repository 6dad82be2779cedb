//! Value-predicate pushdown vs. structural-match-then-post-filter.
//!
//! On the shop scenario (uniform prices in [10, 1000)), `//item[price
//! < T]` sweeps selectivity ~1% / ~10% / ~50%. The predicate path
//! probes the value index, intersects the candidate documents before
//! refinement, and verifies positionally; the baseline runs the same
//! twig without predicates and filters the matches client-side (the
//! only option without a value index). At low selectivity the probe
//! skips refinement for ~99% of the candidates, so the predicate path
//! must do strictly fewer page reads and finish faster — and a
//! `--limit` compounds the gap, because the filtered stream stops
//! after k verified matches while the baseline still pays for the
//! full structural answer.
//!
//! The final JSON table records matches, page reads, and valix
//! counters per case; the inequalities at the bottom are this bench's
//! acceptance checks.

use prix_core::index::ExecOpts;
use prix_core::{EngineConfig, PrixEngine, TwigMatch, TwigQuery};
use prix_datagen::values::{generate, ShopConfig};
use prix_testkit::bench::{Harness, Opts, Report};

/// Client-side post-filter: keep the matches whose predicate-node
/// images have a satisfying leaf child (exactly what the executor's
/// positional verification checks).
fn post_filter(engine: &PrixEngine, q: &TwigQuery, matches: &mut Vec<TwigMatch>) {
    let syms = engine.collection().symbols();
    matches.retain(|m| {
        q.preds().iter().all(|p| {
            let img = m.embedding[(q.tree().postorder(p.node) - 1) as usize];
            let tree = engine.collection().doc(m.doc);
            let node = tree.node_at(img);
            tree.children(node)
                .iter()
                .any(|&c| tree.is_leaf(c) && p.accepts(syms.name(tree.label(c))))
        })
    });
}

fn median_ns(reports: &[Report], suffix: &str) -> u128 {
    reports
        .iter()
        .find(|r| r.name.ends_with(suffix))
        .unwrap_or_else(|| panic!("no report for {suffix}"))
        .median
        .as_nanos()
}

fn main() {
    let collection = generate(&ShopConfig {
        records: 6000,
        seed: 42,
    });
    let engine = PrixEngine::build(collection, EngineConfig::default()).unwrap();
    let snap = engine.snapshot();
    let mut syms = engine.collection().symbols().clone();
    let mut parse = |s: &str| prix_core::parse_xpath(s, &mut syms).unwrap();

    // Uniform prices in [10, 1000) put these thresholds at ~1%, ~10%,
    // and ~50% selectivity.
    let sweep: [(&str, f64); 3] = [
        ("sel_1pct", 20.0),
        ("sel_10pct", 109.0),
        ("sel_50pct", 505.0),
    ];
    let queries: Vec<(&str, TwigQuery)> = sweep
        .iter()
        .map(|&(name, t)| (name, parse(&format!("//item[price < {t}]"))))
        .collect();

    let mut h = Harness::from_args("value_predicates");
    h.set_opts(Opts {
        warmup: 2,
        samples: 15,
    });
    for (name, q) in &queries {
        let bare = q.without_preds();
        h.bench(&format!("{name}/predicate"), || {
            std::hint::black_box(snap.query(q).unwrap().matches.len());
        });
        h.bench(&format!("{name}/post_filter"), || {
            let mut out = snap.query(&bare).unwrap();
            post_filter(&engine, q, &mut out.matches);
            std::hint::black_box(out.matches.len());
        });
    }
    // Limit pushdown at the selective end: the filtered stream stops at
    // k verified matches; the baseline must still drain the structural
    // answer before it can filter and truncate.
    let (_, selective) = &queries[0];
    let bare = selective.without_preds();
    for k in [1usize, 10] {
        let opts = ExecOpts::new().with_limit(k);
        h.bench(&format!("limit_{k}/predicate"), || {
            std::hint::black_box(snap.query_opts(selective, &opts).unwrap().matches.len());
        });
        h.bench(&format!("limit_{k}/post_filter"), || {
            let mut out = snap.query(&bare).unwrap();
            post_filter(&engine, selective, &mut out.matches);
            out.matches.truncate(k);
            std::hint::black_box(out.matches.len());
        });
    }

    let pred_med = median_ns(h.reports(), "sel_1pct/predicate");
    let base_med = median_ns(h.reports(), "sel_1pct/post_filter");
    let pred_lim_med = median_ns(h.reports(), "limit_10/predicate");
    let base_lim_med = median_ns(h.reports(), "limit_10/post_filter");
    h.finish();

    // Cold-cache runs for the Disk-IO story.
    let mut rows = Vec::new();
    let mut cold = |name: &str, q: &TwigQuery, opts: &ExecOpts, filter_with: Option<&TwigQuery>| {
        engine.clear_cache().unwrap();
        let mut out = snap.query_opts(q, opts).unwrap();
        if let Some(fq) = filter_with {
            post_filter(&engine, fq, &mut out.matches);
            if let Some(k) = opts.limit {
                out.matches.truncate(k);
            }
        }
        rows.push(format!(
            r#"  {{"case":"{name}","matches":{},"logical_reads":{},"physical_reads":{},"valix_probes":{},"valix_postings":{},"pred_skipped":{}}}"#,
            out.matches.len(),
            out.io.logical_reads,
            out.io.physical_reads,
            out.stats.valix_probes,
            out.stats.valix_postings,
            out.stats.pred_skipped,
        ));
        (out.matches.len(), out.io.logical_reads)
    };
    let unlimited = ExecOpts::new();
    let mut pairs = Vec::new();
    for (name, q) in &queries {
        let bare = q.without_preds();
        let (n_pred, r_pred) = cold(&format!("{name}/predicate"), q, &unlimited, None);
        // The baseline's reads are those of the structural query; the
        // post-filter itself touches only the in-memory collection.
        let (n_base, r_base) = cold(&format!("{name}/post_filter"), &bare, &unlimited, Some(q));
        assert_eq!(n_pred, n_base, "{name}: identical answers both ways");
        pairs.push((*name, r_pred, r_base));
    }
    let lim = ExecOpts::new().with_limit(10);
    let (_, r_pred_lim) = cold("limit_10/predicate", selective, &lim, None);
    engine.clear_cache().unwrap();
    let mut out = snap.query(&bare).unwrap();
    let r_base_lim = out.io.logical_reads;
    post_filter(&engine, selective, &mut out.matches);
    out.matches.truncate(10);
    rows.push(format!(
        r#"  {{"case":"limit_10/post_filter","matches":{},"logical_reads":{r_base_lim},"physical_reads":{},"valix_probes":0,"valix_postings":0,"pred_skipped":0}}"#,
        out.matches.len(),
        out.io.physical_reads,
    ));
    println!("[\n{}\n]", rows.join(",\n"));

    // Acceptance: at ~1% selectivity the predicate path beats
    // match-then-filter on both page reads and median latency, and the
    // limit widens the page-read gap (the baseline cannot push a limit
    // below the post-filter, so its cost is flat while the predicate
    // path's shrinks).
    let (_, r_pred_1, r_base_1) = pairs[0];
    assert!(
        r_pred_1 < r_base_1,
        "1% predicate must read strictly fewer pages: {r_pred_1} vs {r_base_1}"
    );
    assert!(
        pred_med < base_med,
        "1% predicate must have lower median latency: {pred_med}ns vs {base_med}ns"
    );
    assert!(
        pred_lim_med < base_lim_med,
        "limit 10: predicate must stay faster: {pred_lim_med}ns vs {base_lim_med}ns"
    );
    assert!(
        r_pred_lim <= r_pred_1 && r_pred_lim < r_base_lim,
        "limit 10: predicate reads must not grow ({r_pred_lim} vs unlimited {r_pred_1}) and must undercut the baseline ({r_base_lim})"
    );
    let gap_unlimited = r_base_1 as f64 / r_pred_1.max(1) as f64;
    let gap_limited = r_base_lim as f64 / r_pred_lim.max(1) as f64;
    assert!(
        gap_limited >= gap_unlimited,
        "the limit must compound the page-read gap: {gap_limited:.2}x vs {gap_unlimited:.2}x"
    );
}
