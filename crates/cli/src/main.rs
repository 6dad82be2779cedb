//! `prix` — command-line interface for the PRIX XML index.
//!
//! ```text
//! prix index  <out.prix> <file.xml>...    build a database from XML files
//! prix query  <db.prix>  "<xpath>"        run a twig query
//! prix serve  <db.prix>  [--addr H:P] [--ingest]
//!                                         serve queries over HTTP; with
//!                                         --ingest, POST /documents too
//! prix stats  <db.prix>                   show index statistics
//! prix fsck   <db.prix>                   verify checksums + recovery state
//! prix gen    <dataset> <dir> [--scale S] [--seed N]
//!                                         write a synthetic corpus as XML
//! ```
//!
//! Each `<file.xml>` becomes one document of the collection. Queries use
//! the XPath subset of the paper (Table 3): `/`, `//`, `*` steps,
//! attribute steps, and `[...]` predicates with optional `="value"`.
//!
//! Exit codes: 0 success, 1 runtime failure (bad database, query
//! error, ...), 2 usage error (unknown subcommand, missing flags) — the
//! usage text goes to stderr in that case.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use prix_core::plan::EngineChoice;
use prix_core::{EngineConfig, ExecOpts, LabelingMode, PrixEngine};
use prix_server::{AltCache, Server, ServerConfig, SnapshotAlts};
use prix_xml::{write_document, Collection};

const USAGE: &str = "usage:\n  prix index [--bulk] [--run-mem-mb N] [--split] [--no-wal] [--alpha N] <out.prix> <file.xml>...\n  prix query <db.prix> \"<xpath>\" [--unordered] [--limit N] [--engine prix|prix_rp|prix_ep|vist|twigstack|twigstackxb]\n  prix serve <db.prix> [--addr HOST:PORT] [--ingest] [--threads N] [--queue N] [--buffer-pages N] [--batch-threads N] [--max-conns N] [--result-cache-entries N] [--idle-timeout-ms N] [--compact-after N] [--no-wal]\n  prix stats <db.prix>\n  prix segments <db.prix> [--verify]\n  prix compact <db.prix> [--run-mem-mb N]\n  prix fsck <db.prix>\n  prix explain <db.prix> \"<xpath>\"\n  prix add <db.prix> <file.xml>...\n  prix gen <dblp|swissprot|treebank|shop> <dir> [--scale S] [--seed N]";

/// A CLI failure: usage errors exit 2 (with the usage text on stderr),
/// runtime errors exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("segments") => cmd_segments(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("add") => cmd_add(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(usage_err("no command given")),
        Some(other) => Err(usage_err(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_index(args: &[String]) -> Result<(), CliError> {
    let mut split = false;
    let mut wal = true;
    let mut bulk = false;
    let mut run_mem_bytes = prix_core::DEFAULT_RUN_MEM_BYTES;
    let mut labeling = LabelingMode::Exact;
    let mut args = args;
    loop {
        match args {
            [flag, rest @ ..] if flag == "--split" => {
                split = true;
                args = rest;
            }
            [flag, rest @ ..] if flag == "--no-wal" => {
                wal = false;
                args = rest;
            }
            [flag, rest @ ..] if flag == "--bulk" => {
                bulk = true;
                args = rest;
            }
            [flag, n, rest @ ..] if flag == "--run-mem-mb" => {
                let mb: usize = n
                    .parse()
                    .map_err(|_| usage_err("--run-mem-mb needs a positive integer"))?;
                if mb == 0 {
                    return Err(usage_err("--run-mem-mb needs a positive integer"));
                }
                run_mem_bytes = mb << 20;
                args = rest;
            }
            // Dynamic labeling leaves trie-scope headroom so `prix add`
            // and `serve --ingest` can accept documents later; exact
            // labeling (the default) packs scopes tight and rejects
            // most inserts.
            [flag, n, rest @ ..] if flag == "--alpha" => {
                let alpha: usize = n
                    .parse()
                    .map_err(|_| usage_err("--alpha needs a positive integer"))?;
                if alpha == 0 {
                    return Err(usage_err("--alpha needs a positive integer"));
                }
                labeling = LabelingMode::Dynamic { alpha };
                args = rest;
            }
            _ => break,
        }
    }
    let [out, files @ ..] = args else {
        return Err(usage_err(
            "index needs <out.prix> and at least one <file.xml>",
        ));
    };
    if files.is_empty() {
        return Err(usage_err("index needs at least one <file.xml>"));
    }
    let cfg = EngineConfig {
        path: Some(PathBuf::from(out)),
        wal,
        labeling,
        ..Default::default()
    };
    if bulk {
        // Streaming path: each document goes straight through the
        // external-merge-sort segment builder; the collection is never
        // materialized in memory.
        let mut builder =
            prix_core::BulkBuilder::new_mem(cfg, run_mem_bytes).map_err(|e| e.to_string())?;
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
            if split {
                builder
                    .add_xml_split(&text)
                    .map_err(|e| format!("{f}: {e}"))?;
            } else {
                builder.add_xml(&text).map_err(|e| format!("{f}: {e}"))?;
            }
        }
        let docs = builder.doc_count();
        let engine = builder.finish().map_err(|e| e.to_string())?;
        println!(
            "bulk-indexed {} documents into {out} (generation {})",
            docs,
            engine.generation()
        );
        for s in engine.segment_manifest() {
            println!(
                "  segment {}: kind {}, docs {}..{}",
                s.suffix,
                seg_kind_name(s.kind),
                s.doc_base,
                s.doc_base + s.n_docs
            );
        }
        return Ok(());
    }
    let mut collection = Collection::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        if split {
            // One monolithic export (like the real DBLP file): each
            // child of the root becomes its own document.
            collection
                .add_xml_split(&text)
                .map_err(|e| format!("{f}: {e}"))?;
        } else {
            collection.add_xml(&text).map_err(|e| format!("{f}: {e}"))?;
        }
    }
    let stats = collection.stats();
    let mut engine = PrixEngine::build(collection, cfg).map_err(|e| e.to_string())?;
    engine.save().map_err(|e| e.to_string())?;
    println!(
        "indexed {} documents ({} elements, {} values) into {out}",
        stats.sequences, stats.elements, stats.values
    );
    print_index_stats(&engine);
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let [db, xpath, rest @ ..] = args else {
        return Err(usage_err("query needs <db.prix> and \"<xpath>\""));
    };
    if db.starts_with("--") || xpath.starts_with("--") {
        return Err(usage_err(
            "query needs <db.prix> and \"<xpath>\" before any flags",
        ));
    }
    let mut unordered = false;
    let mut forced: Option<EngineChoice> = None;
    let mut opts = ExecOpts::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--unordered" => unordered = true,
            "--limit" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--limit needs an integer"))?;
                // --limit 0 means unlimited, matching the server.
                opts = if n == 0 {
                    opts.without_limit()
                } else {
                    opts.with_limit(n)
                };
            }
            "--engine" => {
                let v = it
                    .next()
                    .ok_or_else(|| usage_err("--engine needs a value"))?;
                forced = Some(EngineChoice::parse(v).ok_or_else(|| {
                    usage_err(format!(
                        "unknown engine `{v}` (expected prix, prix_rp, prix_ep, vist, twigstack, or twigstackxb)"
                    ))
                })?);
            }
            other => return Err(usage_err(format!("unknown query flag `{other}`"))),
        }
    }
    if unordered && forced.is_some() {
        return Err(usage_err(
            "--engine cannot be combined with --unordered (arrangement matching is PRIX-only)",
        ));
    }
    let engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    // The server's read path: a snapshot, with the alternative engines
    // built lazily, one substrate at a time, by the server's cache.
    let snap = engine.snapshot();
    let q = snap.parse_query(xpath).map_err(|e| e.to_string())?;
    let out = if unordered {
        snap.query_unordered_opts(&q, &opts)
            .map_err(|e| e.to_string())?
    } else {
        let cache = AltCache::new();
        let alts = SnapshotAlts {
            snap: &snap,
            cache: &cache,
        };
        snap.query_routed(&q, &opts, forced, &alts)
            .map_err(|e| e.to_string())?
            .outcome
    };
    println!(
        "{} match(es){} via {} ({}) in {:?} ({} pages read, {} range queries, {} candidates)",
        out.matches.len(),
        if out.truncated {
            " (truncated by --limit)"
        } else {
            ""
        },
        out.engine.label(),
        out.index_used,
        out.elapsed,
        out.io.physical_reads,
        out.stats.range_queries,
        out.stats.candidates
    );
    println!(
        "io: {} pages read, {} pages written, {} fsyncs",
        out.io.physical_reads, out.io.physical_writes, out.io.fsyncs
    );
    println!("epoch: {}", snap.epoch());
    println!(
        "stages: filter {:?}, refine {:?}, project {:?}",
        out.stats.filter_time, out.stats.refine_time, out.stats.project_time
    );
    for m in out.matches.iter().take(50) {
        println!("  doc {} -> nodes {:?}", m.doc, m.embedding);
    }
    if out.matches.len() > 50 {
        println!("  ... and {} more", out.matches.len() - 50);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let [db, rest @ ..] = args else {
        return Err(usage_err("serve needs <db.prix>"));
    };
    if db.starts_with("--") {
        return Err(usage_err("serve needs <db.prix> before any flags"));
    }
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7140".to_string(),
        ..Default::default()
    };
    let mut buffer_pages = 2000usize;
    let mut wal = true;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| usage_err(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--addr" => cfg.addr = val("--addr")?.clone(),
            "--ingest" => cfg.ingest = true,
            "--no-wal" => wal = false,
            "--threads" => {
                cfg.threads = val("--threads")?
                    .parse()
                    .map_err(|_| usage_err("--threads needs an integer"))?
            }
            "--queue" => {
                cfg.queue_depth = val("--queue")?
                    .parse()
                    .map_err(|_| usage_err("--queue needs an integer"))?
            }
            "--buffer-pages" => {
                buffer_pages = val("--buffer-pages")?
                    .parse()
                    .map_err(|_| usage_err("--buffer-pages needs an integer"))?
            }
            "--batch-threads" => {
                cfg.batch_threads = val("--batch-threads")?
                    .parse()
                    .map_err(|_| usage_err("--batch-threads needs an integer"))?
            }
            "--max-conns" => {
                cfg.max_connections = val("--max-conns")?
                    .parse()
                    .map_err(|_| usage_err("--max-conns needs an integer"))?
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(
                    val("--read-timeout-ms")?
                        .parse()
                        .map_err(|_| usage_err("--read-timeout-ms needs an integer"))?,
                )
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(
                    val("--idle-timeout-ms")?
                        .parse()
                        .map_err(|_| usage_err("--idle-timeout-ms needs an integer"))?,
                )
            }
            "--result-cache-entries" => {
                cfg.result_cache_entries = val("--result-cache-entries")?
                    .parse()
                    .map_err(|_| usage_err("--result-cache-entries needs an integer"))?
            }
            "--compact-after" => {
                let n: usize = val("--compact-after")?
                    .parse()
                    .map_err(|_| usage_err("--compact-after needs a positive integer"))?;
                if n == 0 {
                    return Err(usage_err("--compact-after needs a positive integer"));
                }
                cfg.compact_after = Some(n);
            }
            other => return Err(usage_err(format!("unknown serve flag `{other}`"))),
        }
    }
    let engine = PrixEngine::reopen_opts(db, buffer_pages, wal).map_err(|e| e.to_string())?;
    let handle = Server::start(engine, cfg).map_err(|e| format!("cannot start server: {e}"))?;
    // The smoke script parses this line to find the ephemeral port;
    // keep its shape stable.
    println!("listening on http://{}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait().map_err(|e| format!("shutdown failed: {e}"))?;
    println!("shutdown complete");
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let [db, xpath] = args else {
        return Err(usage_err("explain needs <db.prix> and \"<xpath>\""));
    };
    let engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    // The same `EngineSnapshot::explain` that serves `GET /explain`.
    print!(
        "{}",
        engine
            .snapshot()
            .explain(xpath)
            .map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_add(args: &[String]) -> Result<(), CliError> {
    let [db, files @ ..] = args else {
        return Err(usage_err("add needs <db.prix> and at least one <file.xml>"));
    };
    if files.is_empty() {
        return Err(usage_err("add needs at least one <file.xml>"));
    }
    let mut engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
        let id = engine
            .insert_document(&text)
            .map_err(|e| format!("{f}: {e}"))?;
        println!("added {f} as doc {id}");
    }
    engine.save().map_err(|e| e.to_string())?;
    println!("committed at epoch {}", engine.epoch());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let [db] = args else {
        return Err(usage_err("stats needs <db.prix>"));
    };
    let engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    print_index_stats(&engine);
    Ok(())
}

fn seg_kind_name(kind: u8) -> &'static str {
    match kind {
        prix_core::SEG_KIND_RP => "rp",
        prix_core::SEG_KIND_EP => "ep",
        _ => "?",
    }
}

fn cmd_segments(args: &[String]) -> Result<(), CliError> {
    let (db, verify) = match args {
        [db] => (db, false),
        [db, flag] if flag == "--verify" => (db, true),
        _ => return Err(usage_err("segments needs <db.prix> [--verify]")),
    };
    let engine = PrixEngine::reopen(db, 256).map_err(|e| e.to_string())?;
    println!(
        "generation {}: {} segment(s), {} segment doc(s), {} mutable doc(s)",
        engine.generation(),
        engine.segment_manifest().len(),
        engine.segment_docs(),
        engine.mutable_docs()
    );
    for s in engine.segment_manifest() {
        println!(
            "  segment {}: kind {}, docs {}..{}",
            s.suffix,
            seg_kind_name(s.kind),
            s.doc_base,
            s.doc_base + s.n_docs
        );
    }
    if verify {
        for (suffix, check) in engine.verify_segments().map_err(|e| e.to_string())? {
            println!(
                "  verified {suffix}: {} blocks, {} tag entries, {} doc entries, {} records ok",
                check.blocks, check.tag_entries, check.doc_entries, check.records
            );
        }
        println!("segments: clean");
    }
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), CliError> {
    let mut run_mem_bytes = prix_core::DEFAULT_RUN_MEM_BYTES;
    let (db, rest) = match args {
        [db, rest @ ..] => (db, rest),
        _ => return Err(usage_err("compact needs <db.prix>")),
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--run-mem-mb" => {
                let mb: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--run-mem-mb needs a positive integer"))?;
                if mb == 0 {
                    return Err(usage_err("--run-mem-mb needs a positive integer"));
                }
                run_mem_bytes = mb << 20;
            }
            other => return Err(usage_err(format!("unknown compact flag `{other}`"))),
        }
    }
    let mut engine = PrixEngine::reopen(db, 2000).map_err(|e| e.to_string())?;
    let before = engine.mutable_docs();
    if !engine
        .compact_with(run_mem_bytes)
        .map_err(|e| e.to_string())?
    {
        println!("nothing to compact (no mutable documents)");
        return Ok(());
    }
    println!(
        "compacted {} document(s) into generation {}",
        before,
        engine.generation()
    );
    for s in engine.segment_manifest() {
        println!(
            "  segment {}: kind {}, docs {}..{}",
            s.suffix,
            seg_kind_name(s.kind),
            s.doc_base,
            s.doc_base + s.n_docs
        );
    }
    Ok(())
}

fn cmd_fsck(args: &[String]) -> Result<(), CliError> {
    let [db] = args else {
        return Err(usage_err("fsck needs <db.prix>"));
    };
    // A manifest that references a missing or corrupt segment file makes
    // this reopen fail — fsck refuses such databases outright.
    let engine = PrixEngine::reopen(db, 256).map_err(|e| e.to_string())?;
    match engine.recovery() {
        Some(rep) if rep.unclean_shutdown => println!(
            "recovery: unclean shutdown; replayed {} frame(s) to {} page(s) from {} WAL byte(s)",
            rep.replayed_frames, rep.replayed_pages, rep.wal_bytes
        ),
        Some(_) => println!("recovery: clean shutdown, nothing to replay"),
        None => {
            return Err(CliError::Runtime(
                "database has no checksum sidecar (indexed with --no-wal); nothing to verify"
                    .into(),
            ))
        }
    }
    let (verified, skipped) = engine.verify_checksums().map_err(|e| e.to_string())?;
    println!("pages: {verified} verified, {skipped} never written");
    if engine.generation() > 0 {
        for (suffix, check) in engine.verify_segments().map_err(|e| e.to_string())? {
            println!(
                "segment {suffix}: {} blocks, {} tag entries, {} doc entries, {} records ok",
                check.blocks, check.tag_entries, check.doc_entries, check.records
            );
        }
    }
    match engine.valix() {
        Some(vx) => {
            let (nums, strs) = vx.verify().map_err(|e| e.to_string())?;
            println!("valix: {nums} numeric posting(s), {strs} string posting(s) ok");
        }
        None => println!("valix: none"),
    }
    for name in unknown_siblings(db) {
        println!("sibling {name}: not part of this database (ignored)");
    }
    println!("fsck: clean");
    Ok(())
}

/// Files next to `<db>` that share its name prefix but match none of
/// the engine's file-naming patterns. fsck reports them (a stray
/// editor backup, a half-copied segment) instead of crashing on or
/// silently blessing them.
fn unknown_siblings(db: &str) -> Vec<String> {
    let path = std::path::Path::new(db);
    let Some(base) = path.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut unknown: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|name| name.starts_with(base) && !known_db_suffix(&name[base.len()..]))
        .collect();
    unknown.sort();
    unknown
}

/// Whether `suffix` (the part after the database name) is one the
/// engine itself writes: the page file, its WAL/checksum sidecars, the
/// manifest, or a generation's files (`.gN`, `.gN.sum`, `.gN.wal`,
/// `.gN.rp.seg`, `.gN.ep.seg`).
fn known_db_suffix(suffix: &str) -> bool {
    let rest = match suffix {
        "" | ".sum" | ".wal" | ".seg" => return true,
        s => match s.strip_prefix(".g") {
            Some(r) => r,
            None => return false,
        },
    };
    let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 {
        return false;
    }
    matches!(
        &rest[digits..],
        "" | ".sum" | ".wal" | ".rp.seg" | ".ep.seg"
    )
}

fn print_index_stats(engine: &PrixEngine) {
    for (name, idx) in [
        ("RPIndex", engine.rp_index()),
        ("EPIndex", engine.ep_index()),
    ] {
        if let Some(idx) = idx {
            let b = idx.build_stats();
            println!(
                "{name}: {} docs, {} trie nodes, {} paths (best shared by {}), total seq len {}",
                idx.doc_count(),
                b.trie_nodes,
                b.trie_paths,
                b.max_path_sharing,
                b.total_seq_len
            );
        }
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    use prix_datagen::Dataset;
    let (dataset, dir, rest) = match args {
        [ds, dir, rest @ ..] => (ds, dir, rest),
        _ => {
            return Err(usage_err(
                "gen needs <dblp|swissprot|treebank|shop> and <dir>",
            ))
        }
    };
    // `shop` (the value-predicate scenario) lives outside the Table 2
    // trio and is generated through its own config below.
    let dataset = match dataset.as_str() {
        "dblp" => Some(Dataset::Dblp),
        "swissprot" => Some(Dataset::Swissprot),
        "treebank" => Some(Dataset::Treebank),
        "shop" => None,
        other => return Err(usage_err(format!("unknown dataset `{other}`"))),
    };
    let mut scale = 0.05f64;
    let mut seed = 42u64;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--scale needs a number"))?
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage_err("--seed needs an integer"))?
            }
            other => return Err(usage_err(format!("unknown flag `{other}`"))),
        }
    }
    let collection = match dataset {
        Some(ds) => prix_datagen::generate(ds, scale, seed),
        None => {
            prix_datagen::values::generate(&prix_datagen::values::ShopConfig::scaled(scale, seed))
        }
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (id, tree) in collection.iter() {
        let xml = write_document(tree, collection.symbols());
        std::fs::write(dir.join(format!("doc{id:06}.xml")), xml).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} documents ({} elements) to {}",
        collection.len(),
        collection.stats().elements,
        dir.display()
    );
    Ok(())
}
