//! End-to-end benchmark of `prix serve` and the offline lifecycle.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload read_hot --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload all --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --self-test
//! ```
//!
//! Every run builds a fresh database from seeded inputs, serves it with
//! `prix_server::Server` over loopback keep-alive connections, and ends
//! with the lifecycle: an unclean stop that leaves a WAL tail, a timed
//! recovering reopen, and a timed compaction. Every answer is checked.
//! The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the lines before it print every metric by name with
//! its unit and sample count.

mod check;
mod client;
mod crash;
mod gen;
mod json;
mod load;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prix_core::{BulkBuilder, EngineConfig, LabelingMode, PrixEngine, DEFAULT_RUN_MEM_BYTES};
use prix_datagen::SplitMix64;
use prix_server::{Server, ServerConfig, ServerHandle};

use crate::load::{LoadGen, Phase, Reads};
use crate::stats::{beyond, low_decile, median, quantile, slice_medians};

/// Buffer-pool pages the server reopens with (`prix serve` default).
const POOL_PAGES: usize = 2000;
/// Documents per ingest batch (one WAL group commit each).
const BATCH_DOCS: usize = 4;
/// Trie-scope headroom so the served database accepts ingests.
const ALPHA: usize = 4;
/// Delta size (documents) that triggers inline compaction. The mutable
/// delta above a bulk-built database runs out of trie scope after about
/// sixty shop documents, so every workload that ingests compacts well
/// before that.
const COMPACT_AFTER: usize = 40;
/// Consecutive slices of the open loop; `read_p50_ms` is the median of
/// their medians.
const OPEN_SLICES: usize = 5;

/// One workload: the database it builds and the traffic it sends.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub scale: f64,
    /// Zipf over a fixed pool (cache-resident) instead of distinct
    /// bindings.
    pub hot: bool,
    /// Open-loop offered read rate, requests per second.
    pub read_rate: f64,
    /// Ingest batches per second beside the reads (0 = read-only).
    pub mixed_ingest_rate: f64,
    /// Ingest batches per second in the write-only closing phase of a
    /// read-only workload.
    pub tail_ingest_rate: f64,
    /// Shares of `--seconds` for the open-loop, closed-loop and
    /// write-only phases.
    pub split: [f64; 3],
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Bulk builds per run beyond those inside the set-ups (`build_s`
    /// is the lower decile of all of them).
    pub extra_builds: usize,
    /// Recoveries and compactions timed per run, from one post-crash
    /// image (`recover_s` and `compact_s` are their lower deciles).
    pub lifecycle_repeats: usize,
    /// Every `check_every`-th read's reply is kept and checked against
    /// the naive oracle, so the checked sample spans the whole run.
    pub check_every: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "read_hot",
        why: "cache-resident Zipf reads on the small database: per-request HTTP and cache overhead",
        scale: gen::SMALL,
        hot: true,
        read_rate: 5000.0,
        mixed_ingest_rate: 0.0,
        tail_ingest_rate: 12.0,
        split: [0.45, 0.2, 0.35],
        setups: 5,
        extra_builds: 10,
        lifecycle_repeats: 41,
        check_every: 5000,
    },
    Spec {
        name: "read_tail",
        why: "distinct bindings on the large database: planner, executor, valix, segments, alt engines",
        scale: gen::LARGE,
        hot: false,
        read_rate: 40.0,
        mixed_ingest_rate: 0.0,
        tail_ingest_rate: 4.0,
        split: [0.75, 0.1, 0.15],
        setups: 2,
        extra_builds: 1,
        lifecycle_repeats: 7,
        check_every: 100,
    },
    // Runnable by name but left out of BENCHMARK.json: the planner's
    // wall-time EWMA moves the QP1 shape to a ~30x slower plan in about
    // half of the runs, which moves `read_p50_ms` by about a quarter
    // (see METRICS.md).
    Spec {
        name: "ingest_mix",
        why: "distinct bindings with ingest batches beside them on the small database: invalidation, rebuilds, WAL, compaction",
        scale: gen::SMALL,
        hot: false,
        read_rate: 75.0,
        mixed_ingest_rate: 8.0,
        tail_ingest_rate: 0.0,
        split: [0.65, 0.35, 0.0],
        setups: 3,
        extra_builds: 4,
        lifecycle_repeats: 7,
        check_every: 300,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => a.seconds = val()?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => a.trace = val()? == "1",
            "--self-test" => a.self_test = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(if check::self_test() { 0 } else { 1 });
    }
    // `--workload all` runs every workload in turn, each printing its
    // own report and JSON line.
    let specs: Vec<&Spec> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if specs.is_empty() {
        eprintln!("e2ebench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    }
    for spec in specs {
        if let Err(e) = run(spec, &args) {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything the workload sends, derived from the seed alone.
pub struct Inputs {
    pub pool: Vec<String>,
    pub zipf: gen::Zipf,
    pub distinct: Vec<String>,
    /// Distinct query strings the workload can send.
    pub bindings: usize,
    pub batches: Vec<(String, usize, usize)>,
    pub ingest_docs: Vec<String>,
}

impl Inputs {
    pub fn new(spec: &Spec, seed: u64, seconds: f64, oracle: &prix_xml::Collection) -> Inputs {
        let binder = gen::Binder::new(oracle);
        let mut r = SplitMix64::new(seed ^ 0xB1D5);
        let planted: HashSet<String> = gen::planted().into_iter().map(|(q, _)| q).collect();
        let (pool, distinct) = if spec.hot {
            let mut pool: Vec<String> = gen::planted().into_iter().map(|(q, _)| q).collect();
            pool.extend(binder.distinct(&mut r, 300, &planted));
            // Zipf ranks over a seeded shuffle of the pool.
            for i in (1..pool.len()).rev() {
                pool.swap(i, r.below(i as u64 + 1) as usize);
            }
            (pool, Vec::new())
        } else {
            (Vec::new(), binder.sequence(&mut r, 40_000, 3_000, &planted))
        };
        let ingest_batches = (spec.mixed_ingest_rate * (spec.split[0] + spec.split[1]) * seconds
            + spec.tail_ingest_rate * spec.split[2] * seconds)
            .ceil() as usize
            + 2;
        let ingest_docs = gen::ingest_docs(seed, ingest_batches * BATCH_DOCS);
        let batches = ingest_docs
            .chunks(BATCH_DOCS)
            .enumerate()
            .map(|(b, docs)| {
                (
                    format!("<batch>{}</batch>", docs.concat()),
                    b * BATCH_DOCS,
                    docs.len(),
                )
            })
            .collect();
        let bindings = pool.len() + distinct.iter().collect::<HashSet<_>>().len();
        Inputs {
            bindings,
            zipf: gen::Zipf::new(pool.len().max(1)),
            pool,
            distinct,
            batches,
            ingest_docs,
        }
    }

    /// Read `i` of the request sequence: a pure function of the seed
    /// and `i`.
    pub fn read(&self, seed: u64, i: usize) -> Option<String> {
        if self.pool.is_empty() {
            self.distinct.get(i).cloned()
        } else {
            let mut r = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Some(self.pool[self.zipf.sample(&mut r)].clone())
        }
    }

    /// Fingerprint of the operation sequence: documents, query strings
    /// (the first 5,000), ingest batches and the schedule parameters.
    pub fn fingerprint(&self, spec: &Spec, seed: u64, seconds: f64, docs: &[String]) -> u64 {
        let mut h = gen::Fnv::new();
        for d in docs {
            h.add(d.as_bytes());
        }
        for i in 0..5000 {
            if let Some(q) = self.read(seed, i) {
                h.add(q.as_bytes());
            }
        }
        for (b, _, _) in &self.batches {
            h.add(b.as_bytes());
        }
        h.add(
            format!(
                "{} {} {} {:?} {}",
                spec.read_rate, spec.mixed_ingest_rate, spec.tail_ingest_rate, spec.split, seconds
            )
            .as_bytes(),
        );
        h.0
    }
}

/// On-disk bytes of every file of the database (db, `.sum`, `.wal`,
/// segments, manifest).
fn disk_bytes(dir: &Path) -> (u64, u64, u64, u64) {
    let (mut total, mut seg, mut wal, mut db) = (0, 0, 0, 0);
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let n = e.file_name().to_string_lossy().to_string();
            let len = e.metadata().map_or(0, |m| m.len());
            if !n.starts_with("db.prix") {
                continue;
            }
            total += len;
            if n.ends_with(".seg") && n != "db.prix.seg" {
                seg += len;
            } else if n.ends_with(".wal") {
                wal += len;
            } else {
                db += len;
            }
        }
    }
    (total, db, seg, wal)
}

pub struct Built {
    pub handle: Option<ServerHandle>,
    pub switch: crash::KillSwitch,
    pub setup_s: f64,
    pub build_s: f64,
    pub docs: Vec<String>,
    pub input_bytes: u64,
    pub disk: (u64, u64, u64, u64),
    /// Planted queries answered with their planted count, and not.
    pub planted: (usize, usize),
    pub spans: trace::Spans,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        ingest: true,
        compact_after: Some(COMPACT_AFTER),
        ..Default::default()
    }
}

/// The bulk build `prix index --bulk --alpha` does, timed: every
/// document through `BulkBuilder::add_xml`, then `finish`.
fn bulk_build(db: &Path, docs: &[String], spans: &mut trace::Spans) -> Result<f64, String> {
    if let Some(dir) = db.parent() {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    let cfg = EngineConfig {
        path: Some(db.to_path_buf()),
        labeling: LabelingMode::Dynamic { alpha: ALPHA },
        buffer_pages: POOL_PAGES,
        ..Default::default()
    };
    let mut b = BulkBuilder::new_mem(cfg, DEFAULT_RUN_MEM_BYTES).map_err(|e| e.to_string())?;
    for d in docs {
        let s = spans.start("build.add_xml", None);
        b.add_xml(d).map_err(|e| format!("bulk add: {e}"))?;
        spans.end(s);
    }
    let s = spans.start("build.finish", None);
    drop(b.finish().map_err(|e| format!("bulk finish: {e}"))?);
    spans.end(s);
    Ok(t.elapsed().as_secs_f64())
}

/// One set-up: generate, bulk-build (what `prix index --bulk --alpha`
/// does), reopen and start the server (what `prix serve --ingest`
/// does), then the warm-up pass.
fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    hot_pool: &[String],
    trace: bool,
) -> Result<Built, String> {
    let db = dir.join("db.prix");
    let mut spans = trace::Spans::new(trace);
    let t0 = Instant::now();
    let docs = gen::corpus(spec.scale, seed);
    let input_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let build_s = bulk_build(&db, &docs, &mut spans)?;
    let disk = disk_bytes(dir);
    let switch = crash::KillSwitch::default();
    let s = spans.start("reopen.serve", None);
    let env = Arc::new(crash::KillEnv::new(&db, switch.clone()));
    let engine =
        PrixEngine::reopen_env(env, POOL_PAGES, true).map_err(|e| format!("reopen: {e}"))?;
    spans.end(s);
    let handle = Server::start(engine, server_config()).map_err(|e| format!("server: {e}"))?;
    // Warm-up: the planted queries (checked), one forced alternative
    // engine (builds the per-epoch ViST and TwigStack substrates), and
    // for the hot workload one pass over its pool.
    let mut conn = client::Conn::new(handle.addr());
    let (mut planted_ok, mut planted_bad) = (0, 0);
    for (q, want) in gen::planted() {
        let r = conn
            .send(&client::query(&q))
            .map_err(|e| format!("warm-up: {e}"))?;
        let got = json::Json::parse(&r.body).ok().and_then(|j| j.u64("count"));
        if r.status == 200 && got == Some(want) {
            planted_ok += 1;
        } else {
            eprintln!(
                "planted `{q}`: HTTP {} count {got:?}, want {want}",
                r.status
            );
            planted_bad += 1;
        }
    }
    let s = spans.start("alts.warm", None);
    let r = conn
        .send(&client::get(&format!(
            "/query?xp={}&engine=twigstack&limit=1",
            client::encode("//item/id")
        )))
        .map_err(|e| format!("warm-up: {e}"))?;
    spans.end(s);
    if r.status != 200 {
        return Err(format!("alt-engine warm-up: HTTP {} {}", r.status, r.body));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    // Priming the result cache with the hot pool is the workload's, not
    // the system's, set-up: untimed. Its cost depends on which bindings
    // the seed drew, and would swamp `setup_s`.
    for q in hot_pool {
        let r = conn
            .send(&client::query(q))
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up `{q}`: HTTP {} {}", r.status, r.body));
        }
    }
    Ok(Built {
        handle: Some(handle),
        switch,
        setup_s,
        build_s,
        docs,
        input_bytes,
        disk,
        planted: (planted_ok, planted_bad),
        spans,
    })
}

/// Scrapes `/metrics` into `name{labels}` → value.
pub fn scrape(addr: std::net::SocketAddr) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut c = client::Conn::new(addr);
    if let Ok(r) = c.send(&client::get("/metrics")) {
        for l in r.body.lines() {
            if l.starts_with('#') {
                continue;
            }
            if let Some((k, v)) = l.rsplit_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
    out
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
    }
    sync_dir(to)
}

/// Flushes every file of `dir` to disk, so a timed step that syncs does
/// not also pay for writing back bytes an untimed step left dirty.
fn sync_dir(dir: &Path) -> Result<(), String> {
    for e in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        std::fs::File::open(e.path())
            .and_then(|f| f.sync_all())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, samples: usize) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    });
}

fn run(spec: &Spec, args: &Args) -> Result<(), String> {
    let conns = nproc();
    let work = PathBuf::from(".bench_work");
    let dir = work.join(format!("{}-{}", spec.name, args.seed));
    let run_start = Instant::now();

    // Inputs that need the collection (bindings, oracle) are derived
    // outside every timed region, from the same seed.
    let docs0 = gen::corpus(spec.scale, args.seed);
    let mut oracle = gen::oracle(&docs0);
    let inputs = Inputs::new(spec, args.seed, args.seconds, &oracle);
    let fingerprint = inputs.fingerprint(spec, args.seed, args.seconds, &docs0);
    drop(docs0);

    // Set-up, several times; the last one stays up.
    let hot_pool = inputs.pool.clone();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut built = None;
    for k in 0..spec.setups {
        if let Some(h) = built.take().and_then(|mut b: Built| b.handle.take()) {
            h.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        let b = setup(
            spec,
            args.seed,
            &dir,
            &hot_pool,
            args.trace && k + 1 == spec.setups,
        )?;
        setups.push(b.setup_s);
        builds.push(b.build_s);
        attempted += b.planted.0 + b.planted.1;
        failed += b.planted.1;
        built = Some(b);
    }
    let mut built = built.expect("at least one set-up");
    let scratch = work.join(format!("{}-{}.build", spec.name, args.seed));
    for _ in 0..spec.extra_builds {
        builds.push(bulk_build(
            &scratch.join("db.prix"),
            &built.docs,
            &mut trace::Spans::new(false),
        )?);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let addr = built.handle.as_ref().expect("server is up").addr();

    // Serving phases.
    let every = spec.check_every;
    let keep = move |i: usize| i % every == every / 2;
    let reads = |i: usize| inputs.read(args.seed, i);
    let mut warmed: HashSet<String> = gen::planted().into_iter().map(|(q, _)| q).collect();
    warmed.extend(inputs.pool.iter().cloned());
    let loadgen = LoadGen {
        warmed: &warmed,
        addr,
        conns,
        reads: &reads,
        batches: &inputs.batches,
        keep_body: &keep,
        trace: args.trace,
        next_read: AtomicUsize::new(0),
        next_batch: AtomicUsize::new(0),
        writer: Mutex::new(()),
    };
    let s = args.seconds;
    let mut phases = vec![
        Phase {
            reads: Reads::Open(spec.read_rate),
            ingest_rate: spec.mixed_ingest_rate,
            seconds: s * spec.split[0],
        },
        Phase {
            reads: Reads::Closed,
            ingest_rate: spec.mixed_ingest_rate,
            seconds: s * spec.split[1],
        },
    ];
    if spec.tail_ingest_rate > 0.0 {
        phases.push(Phase {
            reads: Reads::Off,
            ingest_rate: spec.tail_ingest_rate,
            seconds: s * spec.split[2],
        });
    }
    let m0 = scrape(addr);
    let io0 = built.switch.io();
    let mut logs = Vec::new();
    let mut cpu = vec![stats::process_cpu_s()];
    let ticks0 = stats::cpu_ticks();
    for p in &phases {
        logs.push(loadgen.run(p));
        cpu.push(stats::process_cpu_s());
    }
    let ticks1 = stats::cpu_ticks();
    let m1 = scrape(addr);
    let io1 = built.switch.io();
    let store_io = (io1.0 - io0.0, io1.1 - io0.1, io1.2 - io0.2);

    // What ran: /explain for the checked sample (MaxGap setting).
    let mut maxgap_on = 0usize;
    let mut explained = 0usize;
    {
        let mut c = client::Conn::new(addr);
        for rec in logs
            .iter()
            .flat_map(|(l, ..)| &l.reads)
            .filter(|r| r.body.is_some())
        {
            let q = inputs.read(args.seed, rec.idx).expect("kept read exists");
            if let Ok(r) = c.send(&client::get(&format!("/explain?xp={}", client::encode(&q)))) {
                if let Some(line) = r.body.lines().find(|l| l.starts_with("planner:")) {
                    explained += 1;
                    if line.contains("maxgap=on") {
                        maxgap_on += 1;
                    }
                }
            }
        }
    }

    // The unclean stop: once armed, the server's next commit makes its
    // WAL durable and then loses its disk.
    built.switch.arm();
    let crash_batch = loadgen.next_batch.load(std::sync::atomic::Ordering::SeqCst);
    let crash_reply = match inputs.batches.get(crash_batch) {
        Some((body, ..)) => client::Conn::new(addr)
            .send(&client::post("/documents?split=1", body))
            .map_or(0, |r| r.status),
        None => 0,
    };
    let crashed = built.switch.is_dead();
    if let Some(h) = built.handle.take() {
        let _ = h.shutdown(); // the final flush fails: the disk is gone
    }
    attempted += 1;
    if !crashed || crash_reply == 200 {
        eprintln!("unclean stop did not happen (dead={crashed}, reply {crash_reply})");
        failed += 1;
    }

    // Recovery and compaction, each timed `lifecycle_repeats` times from
    // the same post-crash image: reopen exactly as `prix serve` does
    // (recovering the WAL tail), then fold the delta as `prix compact`
    // does. Every repetition must find an unclean log and a delta to
    // fold; the first also checks every acknowledged document.
    let acked: Vec<(u64, usize)> = logs
        .iter()
        .flat_map(|(l, ..)| &l.ingests)
        .filter(|r| r.ok)
        .flat_map(|r| {
            let first = inputs.batches[r.batch].1;
            r.ids
                .iter()
                .enumerate()
                .map(move |(k, &id)| (id, first + k))
        })
        .collect();
    let crashed_image = work.join(format!("{}-{}.crashed", spec.name, args.seed));
    copy_dir(&dir, &crashed_image)?;
    sync_dir(&dir)?;
    let db = dir.join("db.prix");
    let wal_before = disk_bytes(&dir).3;
    let (mut recovers, mut compacts) = (Vec::new(), Vec::new());
    let (mut rec, mut disk_pre, mut disk_post) = Default::default();
    let mut engine = None;
    for k in 0..spec.lifecycle_repeats {
        if k > 0 {
            drop(engine.take());
            copy_dir(&crashed_image, &dir)?;
        }
        let t = Instant::now();
        let mut e = PrixEngine::reopen_opts(&db, POOL_PAGES, true)
            .map_err(|e| format!("recovering reopen: {e}"))?;
        recovers.push(t.elapsed().as_secs_f64());
        // The stop must have left a log tail to recover from. Whether
        // the unacknowledged batch in it is replayed or discarded is the
        // engine's call; both are allowed (reported as frames replayed).
        rec = e.recovery().unwrap_or_default();
        attempted += 1;
        if !rec.unclean_shutdown {
            eprintln!("reopen saw a clean shutdown: {rec:?}");
            failed += 1;
        }
        // Every acknowledged ingest must survive; planted counts hold.
        if k == 0 {
            let (a, f) = check::durable(&mut e, &acked);
            attempted += a;
            failed += f;
        }
        disk_pre = disk_bytes(&dir);
        let t = Instant::now();
        let compacted = e
            .compact_with(DEFAULT_RUN_MEM_BYTES)
            .map_err(|e| format!("compact: {e}"))?;
        compacts.push(t.elapsed().as_secs_f64());
        disk_post = disk_bytes(&dir);
        attempted += 1;
        if !compacted {
            eprintln!("compaction found no delta to fold");
            failed += 1;
        }
        if k == 0 {
            let (a, f) = check::durable(&mut e, &acked);
            attempted += a;
            failed += f;
        }
        engine = Some(e);
    }
    let _ = std::fs::remove_dir_all(&crashed_image);
    let engine = engine.expect("at least one recovery");
    let recover_s = low_decile(&recovers);
    let compact_s = low_decile(&compacts);

    // Answer checks against the naive oracle (outside every timed
    // region): the sampled responses, at the epoch each reports.
    let visible = check::Visibility::new(
        &mut oracle,
        &inputs,
        logs.iter().flat_map(|(l, ..)| &l.ingests),
    );
    let mut checked = 0usize;
    for rec in logs.iter().flat_map(|(l, ..)| &l.reads) {
        if let Some(body) = &rec.body {
            let q = inputs.read(args.seed, rec.idx).expect("kept read exists");
            checked += 1;
            if let Err(e) = visible.check(&mut oracle, &q, body, server_config().match_limit) {
                eprintln!("wrong answer for `{q}`: {e}");
                failed += 1;
            }
        }
    }

    // Tally the serving phases.
    let reads_open: Vec<&load::ReadRec> = logs[0].0.reads.iter().collect();
    let reads_closed: Vec<&load::ReadRec> = logs[1].0.reads.iter().collect();
    let all_reads = || logs.iter().flat_map(|(l, ..)| &l.reads);
    let ingests: Vec<&load::IngestRec> = logs.iter().flat_map(|(l, ..)| &l.ingests).collect();
    attempted += all_reads().count() + ingests.len() * 2;
    failed += all_reads().filter(|r| !r.ok).count();
    failed += ingests.iter().filter(|r| !r.ok).count();
    failed += ingests.iter().filter(|r| !r.ryw_ok).count();
    // A failed request misses every latency limit.
    let lat = |rs: &[&load::ReadRec]| -> Vec<f64> {
        rs.iter()
            .map(|r| if r.ok { r.lat_ms } else { f64::INFINITY })
            .collect()
    };
    let open_lat = lat(&reads_open);
    let open_slices = slice_medians(&open_lat, OPEN_SLICES);
    let ing_lat: Vec<f64> = ingests
        .iter()
        .map(|r| if r.ok { r.lat_ms } else { f64::INFINITY })
        .collect();
    // Closed-loop throughput: the median rate over twenty consecutive
    // blocks of completions, so a rare heavy query does not decide the
    // figure alone.
    let mut done: Vec<f64> = reads_closed
        .iter()
        .filter(|r| r.ok)
        .map(|r| (r.done - logs[1].1).as_secs_f64())
        .collect();
    done.sort_by(|a, b| a.total_cmp(b));
    done.insert(0, 0.0);
    let block = (done.len() / 20).max(1);
    let rates: Vec<f64> = done
        .windows(block + 1)
        .step_by(block)
        .map(|w| block as f64 / (w[block] - w[0]))
        .collect();
    let read_qps = median(&rates);
    // Cores the process kept busy meanwhile (server and client share it).
    let cores_busy = (cpu[2] - cpu[1]) / logs[1].2;
    let lag: Vec<f64> = reads_open.iter().map(|r| r.lag_ms).collect();

    let mut engines: BTreeMap<String, usize> = BTreeMap::new();
    for r in all_reads().filter(|r| r.ok) {
        *engines.entry(r.engine.to_string()).or_default() += 1;
    }
    let total_routed: usize = engines.values().sum();
    let share = |e: &str| *engines.get(e).unwrap_or(&0) as f64 / total_routed.max(1) as f64;

    let setup_s = median(&setups);
    let build_s = low_decile(&builds);
    let rss = stats::peak_rss_mib();

    let mut e2e = Vec::new();
    metric(&mut e2e, "setup_s", setup_s, "s", setups.len());
    metric(&mut e2e, "build_s", build_s, "s", builds.len());
    metric(
        &mut e2e,
        "read_p50_ms",
        median(&open_slices),
        "ms",
        open_lat.len(),
    );
    metric(&mut e2e, "recover_s", recover_s, "s", recovers.len());
    metric(&mut e2e, "compact_s", compact_s, "s", compacts.len());
    metric(
        &mut e2e,
        "bytes_per_input_byte",
        built.disk.0 as f64 / built.input_bytes as f64,
        "ratio",
        1,
    );
    metric(&mut e2e, "rss_mb", rss, "MiB", 1);

    // What ran, for this run's record.
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("  why: {}", spec.why);
    println!("  ops fingerprint {fingerprint:016x}");
    println!(
        "  nproc {} conns {} threads {}; open loop {} req/s{}; closed loop {} conns",
        nproc(),
        conns,
        conns,
        spec.read_rate,
        if spec.mixed_ingest_rate > 0.0 {
            format!(" + {} ingest batches/s", spec.mixed_ingest_rate)
        } else {
            String::new()
        },
        conns
    );
    println!(
        "  database: {} docs, input {} B, on disk {} B (db {} B, segments {} B, wal {} B)",
        built.docs.len(),
        built.input_bytes,
        built.disk.0,
        built.disk.1,
        built.disk.2,
        built.disk.3
    );
    let cfg = server_config();
    println!(
        "  capacities: pool {} pages x 8 KiB, result cache {} entries, plan cache {} entries, match_limit {}, compact_after {:?}",
        POOL_PAGES, cfg.result_cache_entries, cfg.plan_cache_entries, cfg.match_limit, cfg.compact_after
    );
    println!("  flush policy: WAL on, one group commit + fsync per acknowledged ingest batch of {BATCH_DOCS} docs");
    println!(
        "  engines: {:?}; rp/ep share {:.3}/{:.3}; maxgap on in {}/{} explained plans",
        engines,
        share("prix_rp"),
        share("prix_ep"),
        maxgap_on,
        explained
    );
    // Evaluations only: a cached reply repeats the first one's counts.
    let mut io = [0u64; 4];
    let mut evaluations = 0usize;
    for r in all_reads().filter(|r| r.ok && r.fresh) {
        evaluations += 1;
        for (sum, v) in io.iter_mut().zip(r.io) {
            *sum += v;
        }
    }
    println!(
        "  pages read: {} logical, {} physical; segment blocks: {} reads, {} fetches ({} evaluations, {} bindings available)",
        io[0],
        io[1],
        io[2],
        io[3],
        evaluations,
        inputs.bindings
    );
    // Time the hypervisor gave the machine's CPUs to other guests while
    // the serving phases ran: a run with a high share measured a
    // busier host, not a slower program.
    println!(
        "  host steal during serving: {:.3} of CPU time",
        (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64
    );
    println!(
        "  loadgen: lag p50 {:.3} ms, p99 {:.3} ms, reconnects {}, transport errors {}",
        median(&lag),
        quantile(&lag, 0.99),
        logs.iter().map(|(l, ..)| l.reconnects).sum::<u64>(),
        logs.iter().map(|(l, ..)| l.transport_errors).sum::<u64>()
    );
    println!(
        "  recovery: unclean {} frames {} pages {} wal {} B (wal file before reopen {} B); compaction {} -> {} B on disk",
        rec.unclean_shutdown, rec.replayed_frames, rec.replayed_pages, rec.wal_bytes, wal_before, disk_pre.0, disk_post.0
    );
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.1}", x * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let slices: Vec<String> = open_slices.iter().map(|m| format!("{m:.3}")).collect();
    println!("  open-loop slice medians, ms: {}", slices.join(" "));
    println!(
        "  lifecycle repeats, ms: recover {}; compact {}; builds {}; set-ups {}",
        ms(&recovers),
        ms(&compacts),
        ms(&builds),
        ms(&setups)
    );
    println!(
        "  checked: 17 planted x {} set-ups, {} sampled responses vs naive oracle (of {} reads), {} ingest acks + read-your-writes, {} durable docs x 2",
        spec.setups,
        checked,
        all_reads().count(),
        ingests.len(),
        acked.len()
    );
    // Cost by template, closed loop (each request timed from its send).
    let mut fam: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in reads_closed.iter().filter(|r| r.ok) {
        let q = inputs.read(args.seed, r.idx).unwrap_or_default();
        fam.entry(gen::family(&q)).or_default().push(r.lat_ms);
    }
    let fams: Vec<String> = fam
        .iter()
        .map(|(f, v)| {
            format!(
                "{f} n={} p50={:.2} mean={:.2}",
                v.len(),
                median(v),
                v.iter().sum::<f64>() / v.len() as f64
            )
        })
        .collect();
    println!("  closed-loop ms by template: {}", fams.join("; "));
    let mix = check::engine_mix_flag(&work, spec.name, args.seed, &engines);
    println!("  engine mix vs sibling runs: {mix}");
    for m in &e2e {
        println!(
            "  {:<22} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    // Closed-loop throughput follows how fast the shared machine's
    // cores run at the time (see METRICS.md): printed, not gated.
    println!(
        "  closed loop: read_qps {read_qps:.1} 1/s (median of {} blocks), {cores_busy:.2} cores busy, {} reads",
        rates.len(),
        reads_closed.len()
    );
    // Too noisy on a shared machine to gate on (see METRICS.md),
    // printed for the record.
    println!(
        "  ingest p50 {:.3} ms (n={})",
        median(&ing_lat),
        ing_lat.len()
    );
    println!(
        "  open-loop read p90 {:.3} ms ({} beyond), p99 {:.3} ms ({} beyond); ingest p90 {:.3} ms ({} beyond), p10/p25/p75 {:.1}/{:.1}/{:.1} ms",
        quantile(&open_lat, 0.90),
        beyond(open_lat.len(), 0.90),
        quantile(&open_lat, 0.99),
        beyond(open_lat.len(), 0.99),
        quantile(&ing_lat, 0.90),
        beyond(ing_lat.len(), 0.90),
        quantile(&ing_lat, 0.10),
        quantile(&ing_lat, 0.25),
        quantile(&ing_lat, 0.75)
    );
    println!(
        "  {:<22} {:>14.6} {:<6} n={}",
        "failed_ratio",
        failed as f64 / attempted as f64,
        "ratio",
        attempted
    );
    println!("  wall time {:.1} s", run_start.elapsed().as_secs_f64());

    let metrics = if args.trace {
        trace::per_layer(trace::Ctx {
            spec,
            seed: args.seed,
            inputs: &inputs,
            logs: &logs,
            m0: &m0,
            m1: &m1,
            built: &built,
            engine,
            rec: &rec,
            recover_s,
            compact_s,
            disk_pre,
            disk_post,
            store_io,
            work: &work,
            e2e: &e2e,
        })
    } else {
        drop(engine);
        check::remember(&work, spec.name, args.seed, &e2e);
        e2e
    };
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = String::from("{");
    out.push_str(&format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted,
        failed
    ));
    for (k, m) in metrics.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { -1.0 };
        out.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
            prix_server::json::escape(&m.name),
            v,
            m.unit
        ));
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}
