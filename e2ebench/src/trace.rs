//! The traced run: spans recorded from the benchmark's own files around
//! calls into each layer's public functions, plus the counters the
//! program reports at the same boundaries (per-response `stats`/`io`,
//! `/metrics` deltas, `RecoveryReport`).
//!
//! Spans live in memory and are written out at exit, one line each,
//! to `.bench_work/trace/<workload>-<seed>.spans.tsv`, with per-layer
//! self times (duration minus the time covered by child spans) in
//! `.bench_work/trace/<workload>-<seed>.layers.tsv`.

use std::collections::{BTreeMap, HashSet};
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use prix_core::plan::{EngineChoice, EngineId};
use prix_core::{ExecOpts, PrixEngine, SharedEngine};
use prix_prufer::PruferSeq;
use prix_server::{AltCache, PlanCache, ResultCache, ResultKey, ServerConfig, SnapshotAlts};
use prix_storage::{BufferPool, Pager, RecoveryReport};
use prix_twigstack::Substrate;
use prix_vist::VistEngine;
use prix_xml::SymbolTable;

use crate::load::{Log, ReadRec, RespStats};
use crate::stats::{median, quantile};
use crate::{check, client, Built, Inputs, Metric, Spec};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// In-memory span recorder. Disabled recorders cost one branch.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn start(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            end: None,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end = Some(Instant::now());
        }
    }

    fn dur_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.map_or(0.0, |e| (e - s.start).as_secs_f64() * 1e6)
    }

    /// Self time per span: its duration minus its children's.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.dur_us(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur_us(i);
            }
        }
        own
    }

    /// Durations (µs) of every span called `name`.
    fn durs(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur_us(i))
            .collect()
    }

    fn write(&self, path: &Path, layers: &Path) {
        let own = self.self_us();
        let mut out = String::from("id\tparent\tname\tstart_us\tdur_us\tself_us\n");
        let mut by_layer: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let start = (s.start - self.origin).as_secs_f64() * 1e6;
            out.push_str(&format!(
                "{i}\t{}\t{}\t{start:.1}\t{:.1}\t{:.1}\n",
                s.parent.map_or("-".to_string(), |p| p.to_string()),
                s.name,
                self.dur_us(i),
                own[i]
            ));
            let e = by_layer.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self.dur_us(i);
            e.2 += own[i];
        }
        let _ = std::fs::write(path, out);
        let mut l = String::from("span\tcount\ttotal_us\tself_us\n");
        for (name, (n, tot, own)) in by_layer {
            l.push_str(&format!("{name}\t{n}\t{tot:.1}\t{own:.1}\n"));
        }
        let _ = std::fs::write(layers, l);
    }

    fn absorb(&mut self, other: &Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.iter().map(|s| Span {
            name: s.name,
            parent: s.parent.map(|p| p + base),
            start: s.start,
            end: s.end,
        }));
    }
}

pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub inputs: &'a Inputs,
    pub logs: &'a [(Log, std::time::Instant, f64)],
    pub m0: &'a BTreeMap<String, f64>,
    pub m1: &'a BTreeMap<String, f64>,
    pub built: &'a Built,
    pub engine: PrixEngine,
    pub rec: &'a RecoveryReport,
    pub recover_s: f64,
    pub compact_s: f64,
    pub disk_pre: (u64, u64, u64, u64),
    pub disk_post: (u64, u64, u64, u64),
    /// `(WAL syncs, WAL bytes, other syncs)` over the serving phases.
    pub store_io: (u64, u64, u64),
    pub work: &'a Path,
    pub e2e: &'a [Metric],
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for x in xs {
        s += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer metrics of a traced run.
pub fn per_layer(c: Ctx<'_>) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str, samples: usize| {
        out.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    };
    let d = |k: &str| c.m1.get(k).copied().unwrap_or(0.0) - c.m0.get(k).copied().unwrap_or(0.0);
    let g = |k: &str| c.m1.get(k).copied().unwrap_or(0.0);
    let reads: Vec<&ReadRec> = c
        .logs
        .iter()
        .flat_map(|(l, ..)| &l.reads)
        .filter(|r| r.ok)
        .collect();
    let ingests: Vec<_> = c
        .logs
        .iter()
        .flat_map(|(l, ..)| &l.ingests)
        .filter(|r| r.ok)
        .collect();

    // Replies that came from an evaluation; the rest came out of the
    // result cache with no executor work behind them.
    let fresh: Vec<(&ReadRec, &RespStats)> = reads
        .iter()
        .filter(|r| r.fresh)
        .filter_map(|r| r.stats.as_deref().map(|st| (*r, st)))
        .collect();

    // loadgen
    let open: Vec<&ReadRec> = c.logs[0].0.reads.iter().collect();
    let lag: Vec<f64> = open.iter().map(|r| r.lag_ms).collect();
    put("loadgen.lag_p99_ms", quantile(&lag, 0.99), "ms", lag.len());
    put("loadgen.conns", crate::nproc() as f64, "count", 1);
    put("loadgen.threads", crate::nproc() as f64, "count", 1);

    // http: residue = the request's wire time minus the executor time
    // the server reports for it (0 behind a cache hit).
    let residue: Vec<f64> = open
        .iter()
        .filter(|r| r.ok)
        .map(|r| {
            let inproc = if r.fresh {
                r.stats.as_ref().map_or(0.0, |s| s.elapsed_us)
            } else {
                0.0
            };
            r.wire_us - inproc
        })
        .collect();
    let coverage: Vec<f64> = open
        .iter()
        .filter(|r| r.ok && r.fresh)
        .filter_map(|r| {
            r.stats
                .as_ref()
                .map(|s| (s.elapsed_us / r.wire_us).min(1.0))
        })
        .collect();
    let resp_bytes: u64 = c.logs.iter().map(|(l, ..)| l.resp_bytes).sum();
    let n_reqs = reads.len() + ingests.len() * 2;

    // In-process replay of a sample of the run's reads through the same
    // layer functions the server calls, on the recovered and compacted
    // engine, with a span around each call.
    let mut spans = Spans::new(true);
    spans.absorb(&c.built.spans);
    let shared = SharedEngine::new(c.engine);
    let cfg = ServerConfig::default();
    let plan_cache = PlanCache::new(cfg.plan_cache_entries);
    let result_cache = ResultCache::new(cfg.result_cache_entries);
    let alt_cache = AltCache::new();
    let opts = ExecOpts::new().with_limit(cfg.match_limit);
    let sample: Vec<String> = {
        let mut seen = HashSet::new();
        reads
            .iter()
            .filter(|r| r.body.is_some())
            .filter_map(|r| c.inputs.read(c.seed, r.idx))
            .filter(|q| seen.insert(q.clone()))
            .take(32)
            .collect()
    };
    let snap = shared.snapshot();
    // The per-epoch alternative substrates, built step by step.
    let s = spans.start("alts.reconstruct_collection", None);
    let coll = Arc::new(snap.reconstruct_collection().expect("reconstruct"));
    spans.end(s);
    let s = spans.start("alts.vist_build", None);
    let vist = VistEngine::build(
        Arc::new(BufferPool::new(Pager::in_memory(), 4096)),
        Arc::clone(&coll),
    )
    .expect("vist build");
    spans.end(s);
    let s = spans.start("alts.substrate_build", None);
    let sub = Substrate::build(Arc::new(BufferPool::new(Pager::in_memory(), 4096)), &coll)
        .expect("substrate build");
    spans.end(s);
    drop((vist, sub, coll));
    let alts = SnapshotAlts {
        snap: &snap,
        cache: &alt_cache,
    };
    let s = spans.start("alts.first_routed_build", None);
    let warm = snap.parse_query("//item/id").expect("parse");
    let _ = snap.query_routed(
        &warm,
        &ExecOpts::new().with_limit(1),
        Some(EngineChoice::Forced(EngineId::TwigStack)),
        &alts,
    );
    spans.end(s);
    let mut routed_us: Vec<f64> = Vec::new();
    for q in &sample {
        let root = spans.start("request", None);
        let raw = client::query(q);
        let s = spans.start("http.read_request", Some(root));
        let req = prix_server::http::read_request(&mut BufReader::new(&raw[..]));
        spans.end(s);
        assert!(
            matches!(req, Ok(Some(_))),
            "the benchmark's request bytes parse"
        );
        let key = ResultKey {
            query: q.clone(),
            unordered: false,
            limit: cfg.match_limit as u64,
            epoch: snap.epoch(),
            engine: String::new(),
        };
        let s = spans.start("cache.lookup", Some(root));
        let hit = result_cache.get(&key);
        let planned = plan_cache.get(q, snap.symbols().len());
        spans.end(s);
        let tq = match planned {
            Some(tq) => tq,
            None => {
                let s = spans.start("xpath.parse_query", Some(root));
                let tq = snap.parse_query(q).expect("generated XPath parses");
                spans.end(s);
                let s = spans.start("cache.insert", Some(root));
                plan_cache.insert(q, snap.symbols().len(), tq.clone());
                spans.end(s);
                tq
            }
        };
        if hit.is_none() {
            let s = spans.start("plan.decide", Some(root));
            let _ = snap.planner().decide(&tq, snap.engine_caps(), &opts, None);
            spans.end(s);
            let s = spans.start("exec.query_routed", Some(root));
            let routed = snap.query_routed(&tq, &opts, None, &alts);
            spans.end(s);
            if let Ok(r) = routed {
                routed_us.push(r.outcome.elapsed.as_secs_f64() * 1e6);
                let s = spans.start("cache.insert", Some(root));
                result_cache.insert(
                    key,
                    Arc::from(format!("{}", r.outcome.matches.len()).as_str()),
                );
                spans.end(s);
            }
        }
        spans.end(root);
        let s = spans.start("exec.first_match", None);
        let _ = snap.query_opts(&tq, &ExecOpts::new().with_limit(1));
        spans.end(s);
    }
    // Planner regret on a fixed sample: routed time over the fastest of
    // the forced alternatives (ViST excluded: tens of seconds on
    // Q9-like shapes).
    let mut regret: Vec<f64> = Vec::new();
    for q in sample.iter().take(8) {
        let tq = snap.parse_query(q).expect("parse");
        let Ok(routed) = snap.query_routed(&tq, &opts, None, &alts) else {
            continue;
        };
        let mut best = f64::INFINITY;
        for id in [
            EngineId::PrixRp,
            EngineId::PrixEp,
            EngineId::TwigStack,
            EngineId::TwigStackXb,
        ] {
            if let Ok(r) = snap.query_routed(&tq, &opts, Some(EngineChoice::Forced(id)), &alts) {
                best = best.min(r.outcome.elapsed.as_secs_f64());
            }
        }
        if best.is_finite() && best > 0.0 {
            regret.push(routed.outcome.elapsed.as_secs_f64() / best);
        }
    }
    drop(snap);
    // Ingest parse / Prüfer / commit, on fresh copies of the batches.
    let mut parse_us = Vec::new();
    let mut prufer_us = Vec::new();
    let mut syms = SymbolTable::new();
    let dummy = syms.intern("\u{1}prix-dummy");
    for d in &c.inputs.ingest_docs {
        let s = spans.start("ingest.parse_document", None);
        let t = prix_xml::parse_document(d, &mut syms).expect("ingest XML parses");
        spans.end(s);
        parse_us.push(spans.dur_us(s));
        let s = spans.start("ingest.prufer", None);
        let _ = (PruferSeq::regular(&t), PruferSeq::extended(&t, dummy));
        spans.end(s);
        prufer_us.push(spans.dur_us(s));
    }
    let mut commit_ms = Vec::new();
    for (_, first, n) in c.inputs.batches.iter().take(4) {
        let docs: Vec<String> = c.inputs.ingest_docs[*first..first + n].to_vec();
        let s = spans.start("ingest.commit", None);
        let _ = shared.ingest(&docs);
        spans.end(s);
        commit_ms.push(spans.dur_us(s) / 1e3);
    }
    // Bulk-build parse and Prüfer time over the whole input.
    let (mut bparse, mut bprufer) = (0.0, 0.0);
    let mut syms = SymbolTable::new();
    let dummy = syms.intern("\u{1}prix-dummy");
    for d in &c.built.docs {
        let t0 = Instant::now();
        let t = prix_xml::parse_document(d, &mut syms).expect("corpus XML parses");
        let t1 = Instant::now();
        let _ = (PruferSeq::regular(&t), PruferSeq::extended(&t, dummy));
        bparse += ms(t1 - t0);
        bprufer += ms(t1.elapsed());
    }
    drop(shared);

    let n_fresh = fresh.len();
    let fm =
        |f: fn(&RespStats) -> f64| median(&fresh.iter().map(|(_, s)| f(s)).collect::<Vec<_>>());
    let fa = |f: fn(&RespStats) -> f64| mean(fresh.iter().map(|(_, s)| f(s)));
    let fs = |f: fn(&RespStats) -> f64| fresh.iter().map(|(_, s)| f(s)).sum::<f64>();

    put(
        "http.parse_us",
        median(&spans.durs("http.read_request")),
        "us",
        sample.len(),
    );
    put("http.residue_us", median(&residue), "us", residue.len());
    put(
        "http.span_coverage",
        median(&coverage),
        "ratio",
        coverage.len(),
    );
    put(
        "http.resp_bytes",
        resp_bytes as f64 / n_reqs.max(1) as f64,
        "B",
        n_reqs,
    );
    put("http.rejected", d("prix_http_rejected_total"), "count", 1);
    put(
        "http.reconnects",
        c.logs.iter().map(|(l, ..)| l.reconnects).sum::<u64>() as f64,
        "count",
        1,
    );

    let ratio = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
    put(
        "cache.result_hit_ratio",
        ratio(
            d("prix_cache_hits_total{cache=\"result\"}"),
            d("prix_cache_misses_total{cache=\"result\"}"),
        ),
        "ratio",
        1,
    );
    put(
        "cache.plan_hit_ratio",
        ratio(
            d("prix_cache_hits_total{cache=\"plan\"}"),
            d("prix_cache_misses_total{cache=\"plan\"}"),
        ),
        "ratio",
        1,
    );
    put(
        "cache.result_evictions",
        d("prix_cache_evictions_total{cache=\"result\"}"),
        "count",
        1,
    );
    put(
        "cache.lookup_us",
        median(&spans.durs("cache.lookup")),
        "us",
        sample.len(),
    );
    put(
        "xpath.parse_us",
        median(&spans.durs("xpath.parse_query")),
        "us",
        sample.len(),
    );

    put(
        "plan.decide_us",
        median(&spans.durs("plan.decide")),
        "us",
        sample.len(),
    );
    let mut engines: BTreeMap<&str, usize> = BTreeMap::new();
    for (r, _) in &fresh {
        *engines.entry(r.engine).or_default() += 1;
    }
    for e in EngineId::ALL {
        put(
            &format!("plan.engine.{}", e.label()),
            *engines.get(e.label()).unwrap_or(&0) as f64,
            "count",
            n_fresh,
        );
    }
    let alt = fresh
        .iter()
        .filter(|(r, _)| !r.engine.starts_with("prix"))
        .count();
    put(
        "plan.alt_share",
        alt as f64 / n_fresh.max(1) as f64,
        "ratio",
        n_fresh,
    );
    put(
        "plan.mispredicts",
        d("prix_planner_mispredict_total"),
        "count",
        1,
    );
    put("plan.regret_p50", median(&regret), "ratio", regret.len());
    put(
        "plan.regret_p90",
        quantile(&regret, 0.9),
        "ratio",
        regret.len(),
    );

    // Alternative engines: one build per epoch that saw an alt-routed
    // read; the wait is that first read's wire time.
    let mut first_alt: BTreeMap<u64, f64> = BTreeMap::new();
    let mut epochs: HashSet<u64> = HashSet::new();
    for r in &reads {
        epochs.insert(r.epoch);
        if !r.engine.starts_with("prix") {
            first_alt.entry(r.epoch).or_insert(r.wire_us / 1e3);
        }
    }
    put("alts.builds", first_alt.len() as f64, "count", epochs.len());
    put(
        "alts.builds_per_epoch",
        first_alt.len() as f64 / epochs.len().max(1) as f64,
        "ratio",
        epochs.len(),
    );
    put(
        "alts.reconstruct_ms",
        median(&spans.durs("alts.reconstruct_collection")) / 1e3,
        "ms",
        1,
    );
    put(
        "alts.vist_build_ms",
        median(&spans.durs("alts.vist_build")) / 1e3,
        "ms",
        1,
    );
    put(
        "alts.twigstack_build_ms",
        median(&spans.durs("alts.substrate_build")) / 1e3,
        "ms",
        1,
    );
    put(
        "alts.wait_ms",
        median(&first_alt.values().copied().collect::<Vec<_>>()),
        "ms",
        first_alt.len(),
    );
    put(
        "alts.warm_ms",
        median(&spans.durs("alts.warm")) / 1e3,
        "ms",
        1,
    );

    put("exec.filter_us", fm(|s| s.filter_us), "us", n_fresh);
    put("exec.refine_us", fm(|s| s.refine_us), "us", n_fresh);
    put("exec.project_us", fm(|s| s.project_us), "us", n_fresh);
    put("exec.elapsed_us", fm(|s| s.elapsed_us), "us", n_fresh);
    put("exec.routed_us", median(&routed_us), "us", routed_us.len());
    put(
        "exec.first_match_us",
        median(&spans.durs("exec.first_match")),
        "us",
        sample.len(),
    );
    put(
        "exec.range_queries",
        fa(|s| s.range_queries),
        "count",
        n_fresh,
    );
    put(
        "exec.nodes_scanned",
        fa(|s| s.nodes_scanned),
        "count",
        n_fresh,
    );
    put(
        "exec.maxgap_pruned",
        fa(|s| s.maxgap_pruned),
        "count",
        n_fresh,
    );
    put("exec.candidates", fa(|s| s.candidates), "count", n_fresh);
    put(
        "exec.refine_yield",
        ratio(fs(|s| s.refined), fs(|s| s.candidates) - fs(|s| s.refined)),
        "ratio",
        n_fresh,
    );

    put("valix.probes", fa(|s| s.valix_probes), "count", n_fresh);
    put("valix.postings", fa(|s| s.valix_postings), "count", n_fresh);
    put(
        "valix.pred_skipped",
        fa(|s| s.pred_skipped),
        "count",
        n_fresh,
    );
    put(
        "valix.pred_rejected",
        fa(|s| s.pred_rejected),
        "count",
        n_fresh,
    );
    put(
        "valix.postings_per_match",
        fs(|s| s.valix_postings) / fs(|s| s.count).max(1.0),
        "ratio",
        n_fresh,
    );

    let (lr, pr) = (fs(|s| s.logical_reads), fs(|s| s.physical_reads));
    put(
        "pool.logical_reads",
        fa(|s| s.logical_reads),
        "count",
        n_fresh,
    );
    put(
        "pool.physical_reads",
        fa(|s| s.physical_reads),
        "count",
        n_fresh,
    );
    put(
        "pool.hit_ratio",
        if lr > 0.0 { 1.0 - pr / lr } else { 0.0 },
        "ratio",
        n_fresh,
    );
    put(
        "pool.resident_pages",
        g("prix_bufferpool_resident_pages"),
        "count",
        1,
    );
    let (br, bf) = (fs(|s| s.seg_block_reads), fs(|s| s.seg_block_fetches));
    put(
        "seg.block_reads",
        fa(|s| s.seg_block_reads),
        "count",
        n_fresh,
    );
    put(
        "seg.block_fetches",
        fa(|s| s.seg_block_fetches),
        "count",
        n_fresh,
    );
    put(
        "seg.cache_hit_ratio",
        if br > 0.0 { 1.0 - bf / br } else { 0.0 },
        "ratio",
        n_fresh,
    );
    put("seg.tiers", g("prix_segment_tiers"), "count", 1);

    let docs_in: f64 = ingests.iter().map(|r| r.ids.len() as f64).sum();
    put(
        "wal.fsyncs_per_ingest",
        c.store_io.0 as f64 / ingests.len().max(1) as f64,
        "count",
        ingests.len(),
    );
    put(
        "wal.other_syncs_per_ingest",
        c.store_io.2 as f64 / ingests.len().max(1) as f64,
        "count",
        ingests.len(),
    );
    put(
        "wal.bytes_per_doc",
        c.store_io.1 as f64 / docs_in.max(1.0),
        "B",
        docs_in as usize,
    );
    put("recovery.frames", c.rec.replayed_frames as f64, "count", 1);
    put("recovery.wal_bytes", c.rec.wal_bytes as f64, "B", 1);
    let per_frame = if c.rec.replayed_frames > 0 {
        c.recover_s * 1e6 / c.rec.replayed_frames as f64
    } else {
        0.0
    };
    put(
        "recovery.us_per_frame",
        per_frame,
        "us",
        c.rec.replayed_frames as usize,
    );
    put("reopen.ms", c.recover_s * 1e3, "ms", 1);

    put("ingest.parse_us", median(&parse_us), "us", parse_us.len());
    put(
        "ingest.prufer_us",
        median(&prufer_us),
        "us",
        prufer_us.len(),
    );
    put(
        "ingest.commit_ms",
        median(&commit_ms),
        "ms",
        commit_ms.len(),
    );
    put(
        "ingest.docs_per_batch",
        docs_in / ingests.len().max(1) as f64,
        "count",
        ingests.len(),
    );
    put("build.parse_ms", bparse, "ms", c.built.docs.len());
    put("build.prufer_ms", bprufer, "ms", c.built.docs.len());
    put(
        "build.add_ms",
        spans.durs("build.add_xml").iter().sum::<f64>() / 1e3,
        "ms",
        c.built.docs.len(),
    );
    put(
        "build.finish_ms",
        median(&spans.durs("build.finish")) / 1e3,
        "ms",
        1,
    );
    put("compact.ms", c.compact_s * 1e3, "ms", 1);
    put("compact.count", d("prix_compactions_total"), "count", 1);
    put(
        "compact.bytes_written",
        c.disk_post.2.saturating_sub(c.disk_pre.2) as f64,
        "B",
        1,
    );

    put("space.db_bytes", c.built.disk.1 as f64, "B", 1);
    put("space.seg_bytes", c.built.disk.2 as f64, "B", 1);
    put("space.wal_bytes", c.built.disk.3 as f64, "B", 1);

    // Tracing overhead: this run's open-loop median against the
    // untraced run of the same workload and seed, when one was made in
    // this checkout.
    let traced_p50 = c
        .e2e
        .iter()
        .find(|m| m.name == "read_p50_ms")
        .map_or(0.0, |m| m.value);
    let untraced = check::recall(c.work, c.spec.name, c.seed, "read_p50_ms");
    put("trace.read_p50_ms", traced_p50, "ms", open.len());
    put(
        "trace.overhead_pct",
        untraced.map_or(0.0, |u| (traced_p50 / u - 1.0) * 100.0),
        "%",
        untraced.is_some() as usize,
    );
    put("trace.spans", spans.spans.len() as f64, "count", 1);

    let dir = c.work.join("trace");
    let _ = std::fs::create_dir_all(&dir);
    spans.write(
        &dir.join(format!("{}-{}.spans.tsv", c.spec.name, c.seed)),
        &dir.join(format!("{}-{}.layers.tsv", c.spec.name, c.seed)),
    );
    for m in &out {
        println!(
            "  {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if untraced.is_none() {
        println!("  (no untraced run of this workload and seed in this checkout: trace.overhead_pct not measured)");
    }
    out
}
