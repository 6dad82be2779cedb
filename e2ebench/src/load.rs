//! The load generator: `nproc` threads, each owning one keep-alive
//! connection, draw operations from one shared schedule.
//!
//! * **Open loop**: read `i` of a phase is due at `start + i / rate`;
//!   its latency runs from that due time, so a stall also charges the
//!   requests queued behind it, and the generator's own lateness (send
//!   time minus due time) is recorded.
//! * **Closed loop**: each connection sends its next read as soon as
//!   the previous reply arrived; latency runs from the send.
//!
//! Ingest batches (`POST /documents?split=1`) have due times of their
//! own and go out on whichever connection is free, one at a time: the
//! server has a single writer. After each acknowledgement the same
//! connection looks the batch's last document up (read-your-writes).

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prix_core::EngineId;

use crate::client::{self, Conn};
use crate::gen;
use crate::json::Json;

#[derive(Clone, Copy)]
pub enum Reads {
    Open(f64),
    Closed,
    Off,
}

pub struct Phase {
    pub reads: Reads,
    /// Ingest batches per second (0 = none).
    pub ingest_rate: f64,
    pub seconds: f64,
}

/// Per-response counters the server reports (the traced run's view of
/// the executor, planner and storage layers for this request).
#[derive(Clone, Default)]
pub struct RespStats {
    pub elapsed_us: f64,
    pub filter_us: f64,
    pub refine_us: f64,
    pub project_us: f64,
    pub range_queries: f64,
    pub nodes_scanned: f64,
    pub maxgap_pruned: f64,
    pub candidates: f64,
    pub refined: f64,
    pub count: f64,
    pub valix_probes: f64,
    pub valix_postings: f64,
    pub pred_skipped: f64,
    pub pred_rejected: f64,
    pub logical_reads: f64,
    pub physical_reads: f64,
    pub seg_block_reads: f64,
    pub seg_block_fetches: f64,
}

impl RespStats {
    fn of(j: &Json) -> RespStats {
        let st = j.get("stats").cloned().unwrap_or(Json::Null);
        let io = j.get("io").cloned().unwrap_or(Json::Null);
        let s = |k: &str| st.num(k).unwrap_or(0.0);
        let i = |k: &str| io.num(k).unwrap_or(0.0);
        RespStats {
            elapsed_us: j.num("elapsed_us").unwrap_or(0.0),
            filter_us: s("filter_us"),
            refine_us: s("refine_us"),
            project_us: s("project_us"),
            range_queries: s("range_queries"),
            nodes_scanned: s("nodes_scanned"),
            maxgap_pruned: s("maxgap_pruned"),
            candidates: s("candidates"),
            refined: s("refined"),
            count: j.num("count").unwrap_or(0.0),
            valix_probes: s("valix_probes"),
            valix_postings: s("valix_postings"),
            pred_skipped: s("pred_skipped"),
            pred_rejected: s("pred_rejected"),
            logical_reads: i("logical_reads"),
            physical_reads: i("physical_reads"),
            seg_block_reads: i("seg_block_reads"),
            seg_block_fetches: i("seg_block_fetches"),
        }
    }
}

pub struct ReadRec {
    /// Position in the workload's request sequence.
    pub idx: usize,
    pub ok: bool,
    /// From due time (open loop) or send (closed loop), ms.
    pub lat_ms: f64,
    /// Send time minus due time, ms (open loop).
    pub lag_ms: f64,
    /// Send to reply, µs.
    pub wire_us: f64,
    /// When the reply arrived.
    pub done: Instant,
    pub epoch: u64,
    /// The engine label the reply names (`EngineId::label`).
    pub engine: &'static str,
    /// First time this connection saw the string at this epoch, and not
    /// warmed up: the reply comes from an evaluation, not from the
    /// result cache.
    pub fresh: bool,
    /// Pages read (logical, physical) and segment blocks (reads,
    /// fetches) the server reports for this request.
    pub io: [u64; 4],
    /// Kept for the answer check (sampled requests only).
    pub body: Option<String>,
    /// Kept in traced runs (boxed: most records carry none, and the
    /// records of a run add to the process's peak memory).
    pub stats: Option<Box<RespStats>>,
}

pub struct IngestRec {
    pub batch: usize,
    pub ok: bool,
    pub lat_ms: f64,
    pub epoch: u64,
    pub ids: Vec<u64>,
    /// The batch's last document was visible to the next query.
    pub ryw_ok: bool,
}

#[derive(Default)]
pub struct Log {
    pub reads: Vec<ReadRec>,
    pub ingests: Vec<IngestRec>,
    pub reconnects: u64,
    pub resp_bytes: u64,
    pub transport_errors: u64,
}

pub struct LoadGen<'a> {
    pub addr: SocketAddr,
    pub conns: usize,
    /// Query string of read `i` of the workload's request sequence.
    pub reads: &'a (dyn Fn(usize) -> Option<String> + Sync),
    /// Ingest batches: the body, the global index of its first document
    /// (ingest ids are `SKU-Z<index>`) and its document count.
    pub batches: &'a [(String, usize, usize)],
    pub keep_body: &'a (dyn Fn(usize) -> bool + Sync),
    /// Query strings the warm-up already evaluated at the serving epoch.
    pub warmed: &'a HashSet<String>,
    pub trace: bool,
    pub next_read: AtomicUsize,
    pub next_batch: AtomicUsize,
    pub writer: Mutex<()>,
}

enum Op {
    Read(usize),
    Ingest(usize),
}

struct Sched {
    reads_issued: usize,
    ingests_issued: usize,
}

impl LoadGen<'_> {
    /// Runs one phase on `conns` threads; returns its log, its start
    /// and its measured duration in seconds.
    pub fn run(&self, phase: &Phase) -> (Log, Instant, f64) {
        // One thread and one connection per core at most: the load must
        // not come from more parallelism than the machine has.
        assert!(
            self.conns <= crate::nproc(),
            "{} generator threads exceed nproc",
            self.conns
        );
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(phase.seconds);
        let sched = Mutex::new(Sched {
            reads_issued: 0,
            ingests_issued: 0,
        });
        let logs: Vec<Log> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..self.conns)
                .map(|_| s.spawn(|| self.worker(phase, start, end, &sched)))
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let took = start.elapsed().as_secs_f64();
        let mut all = Log::default();
        for l in logs {
            all.reads.extend(l.reads);
            all.ingests.extend(l.ingests);
            all.reconnects += l.reconnects;
            all.resp_bytes += l.resp_bytes;
            all.transport_errors += l.transport_errors;
        }
        all.reads.sort_by_key(|r| r.idx);
        all.ingests.sort_by_key(|r| r.batch);
        (all, start, took)
    }

    fn next_op(
        &self,
        phase: &Phase,
        start: Instant,
        end: Instant,
        sched: &Mutex<Sched>,
    ) -> Option<(Op, Instant, bool)> {
        let mut s = sched.lock().expect("scheduler lock");
        let now = Instant::now();
        if now >= end {
            return None;
        }
        let ingest_due = (phase.ingest_rate > 0.0)
            .then(|| start + Duration::from_secs_f64(s.ingests_issued as f64 / phase.ingest_rate));
        let read_due = match phase.reads {
            Reads::Open(rate) => {
                Some(start + Duration::from_secs_f64(s.reads_issued as f64 / rate))
            }
            Reads::Closed => Some(now),
            Reads::Off => None,
        };
        let take_ingest = match (ingest_due, read_due) {
            (Some(i), Some(r)) => i <= r,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_ingest {
            let due = ingest_due.expect("ingest due time");
            if due >= end {
                return None;
            }
            let b = self.next_batch.fetch_add(1, Ordering::SeqCst);
            if b >= self.batches.len() {
                return None;
            }
            s.ingests_issued += 1;
            Some((Op::Ingest(b), due, true))
        } else {
            let due = read_due?;
            if due >= end {
                return None;
            }
            let i = self.next_read.fetch_add(1, Ordering::SeqCst);
            (self.reads)(i)?;
            s.reads_issued += 1;
            Some((Op::Read(i), due, matches!(phase.reads, Reads::Open(_))))
        }
    }

    fn worker(&self, phase: &Phase, start: Instant, end: Instant, sched: &Mutex<Sched>) -> Log {
        let mut conn = Conn::new(self.addr);
        let mut log = Log::default();
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        while let Some((op, due, timed_from_due)) = self.next_op(phase, start, end, sched) {
            wait_until(due);
            match op {
                Op::Read(i) => {
                    let rec = self.read(&mut conn, &mut log, &mut seen, i, due, timed_from_due);
                    log.reads.push(rec);
                }
                Op::Ingest(b) => {
                    let _w = self.writer.lock().expect("writer lock");
                    let rec = self.ingest(&mut conn, &mut log, b, due);
                    log.ingests.push(rec);
                }
            }
        }
        log.reconnects = conn.reconnects;
        log.resp_bytes = conn.resp_bytes;
        log
    }

    #[allow(clippy::too_many_arguments)]
    fn read(
        &self,
        conn: &mut Conn,
        log: &mut Log,
        seen: &mut HashSet<(u64, u64)>,
        i: usize,
        due: Instant,
        from_due: bool,
    ) -> ReadRec {
        let xpath = (self.reads)(i).expect("scheduled reads exist");
        let raw = client::query(&xpath);
        let sent = Instant::now();
        let reply = conn.send(&raw);
        let done = Instant::now();
        let origin = if from_due { due } else { sent };
        let mut rec = ReadRec {
            idx: i,
            ok: false,
            lat_ms: (done - origin).as_secs_f64() * 1e3,
            lag_ms: if from_due {
                sent.saturating_duration_since(due).as_secs_f64() * 1e3
            } else {
                0.0
            },
            wire_us: (done - sent).as_secs_f64() * 1e6,
            done,
            epoch: 0,
            engine: "",
            fresh: false,
            io: [0; 4],
            body: None,
            stats: None,
        };
        match reply {
            Ok(r) if r.status == 200 => {
                rec.ok = true;
                rec.epoch = field_u64(&r.body, "\"epoch\":").unwrap_or(0);
                rec.engine = field_str(&r.body, "\"engine\":\"")
                    .and_then(|e| EngineId::ALL.iter().map(|id| id.label()).find(|l| *l == e))
                    .unwrap_or("unknown");
                for (k, key) in [
                    "\"logical_reads\":",
                    "\"physical_reads\":",
                    "\"seg_block_reads\":",
                    "\"seg_block_fetches\":",
                ]
                .iter()
                .enumerate()
                {
                    rec.io[k] = field_u64(&r.body, key).unwrap_or(0);
                }
                let mut h = gen::Fnv::new();
                h.add(xpath.as_bytes());
                rec.fresh = !self.warmed.contains(&xpath) && seen.insert((h.0, rec.epoch));
                // Only evaluations carry executor statistics of their
                // own; a cached reply repeats the first evaluation's.
                if self.trace && rec.fresh {
                    match Json::parse(&r.body) {
                        Ok(j) => rec.stats = Some(Box::new(RespStats::of(&j))),
                        Err(_) => rec.ok = false,
                    }
                }
                if (self.keep_body)(i) {
                    rec.body = Some(r.body);
                }
            }
            Ok(r) => eprintln!("read {i} `{xpath}`: HTTP {} {}", r.status, r.body),
            Err(e) => {
                eprintln!("read {i}: {e}");
                log.transport_errors += 1;
                conn.reset();
            }
        }
        rec
    }

    fn ingest(&self, conn: &mut Conn, log: &mut Log, b: usize, due: Instant) -> IngestRec {
        let (body, first, n) = &self.batches[b];
        let raw = client::post("/documents?split=1", body);
        let reply = conn.send(&raw);
        let lat_ms = due.elapsed().as_secs_f64() * 1e3;
        let mut rec = IngestRec {
            batch: b,
            ok: false,
            lat_ms,
            epoch: 0,
            ids: Vec::new(),
            ryw_ok: false,
        };
        let j = match reply {
            Ok(r) if r.status == 200 => Json::parse(&r.body).ok(),
            Ok(r) => {
                eprintln!("ingest {b}: HTTP {} {}", r.status, r.body);
                None
            }
            Err(e) => {
                eprintln!("ingest {b}: {e}");
                log.transport_errors += 1;
                conn.reset();
                None
            }
        };
        let Some(j) = j else { return rec };
        rec.epoch = j.u64("epoch").unwrap_or(0);
        rec.ids = j
            .arr("ids")
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        rec.ok = rec.ids.len() == *n;
        // Read-your-writes: the last acknowledged document must be
        // visible to the very next query, at the ack's epoch or later.
        let last = first + n - 1;
        let q = format!(r#"//item[id = "{}"]"#, gen::ingest_id(last));
        if let Ok(r) = conn.send(&client::query(&q)) {
            if let (200, Ok(j)) = (r.status, Json::parse(&r.body)) {
                let docs: Vec<u64> = j
                    .arr("matches")
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|m| m.u64("doc"))
                    .collect();
                rec.ryw_ok = j.u64("epoch").unwrap_or(0) >= rec.epoch
                    && docs == [*rec.ids.last().unwrap_or(&u64::MAX)];
            }
        }
        rec
    }
}

/// Sleeps until shortly before `due`, then spins, yielding to any other
/// runnable thread, for the rest. A thread that sleeps right up to each
/// due time lets its CPU go idle, and on a busy virtual machine waking
/// an idle CPU can take longer than a cached reply.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// `"key":123` → 123, by substring search (cheap enough for every reply).
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(key)? + key.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

pub fn field_str(body: &str, key: &str) -> Option<String> {
    let at = body.find(key)? + key.len();
    Some(body[at..].chars().take_while(|&c| c != '"').collect())
}
