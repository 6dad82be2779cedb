//! Answer checking and the benchmark's own self-test.
//!
//! The naive oracle (`prix_core::naive`, ordered-inclusion semantics)
//! defines the answer. A sampled response is checked at the epoch it
//! reports: the oracle sees the base collection plus every ingest batch
//! acknowledged at or before that epoch. Under the server's default
//! `match_limit` a truncated answer must hold exactly `limit` matches,
//! all of them in the oracle's set.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

use prix_core::{naive, parse_xpath, PrixEngine, TwigQuery};
use prix_xml::{Collection, PostNum, SymbolTable, XmlTree};

use crate::json::Json;
use crate::load::IngestRec;
use crate::{gen, Inputs, Metric, Spec, WORKLOADS};

type MatchSet = BTreeSet<(u64, Vec<u64>)>;

/// Planted counts and every acknowledged ingest document, in process on
/// a reopened engine. Returns `(attempted, failed)`.
pub fn durable(engine: &mut PrixEngine, acked: &[(u64, usize)]) -> (usize, usize) {
    let (mut attempted, mut failed) = (0, 0);
    for (q, want) in gen::planted() {
        attempted += 1;
        let got = engine
            .parse_query(&q)
            .ok()
            .and_then(|tq| engine.query(&tq).ok())
            .map(|o| o.matches.len() as u64);
        if got != Some(want) {
            eprintln!("after recovery `{q}`: {got:?}, want {want}");
            failed += 1;
        }
    }
    for &(id, k) in acked {
        attempted += 1;
        let q = format!(r#"//item[id = "{}"]"#, gen::ingest_id(k));
        let docs: Option<Vec<u64>> = engine
            .parse_query(&q)
            .ok()
            .and_then(|tq| engine.query(&tq).ok())
            .map(|o| o.matches.iter().map(|m| m.doc as u64).collect());
        if docs != Some(vec![id]) {
            eprintln!(
                "acknowledged document {} (id {id}) after recovery: {docs:?}",
                gen::ingest_id(k)
            );
            failed += 1;
        }
    }
    (attempted, failed)
}

/// Which documents each epoch can see.
pub struct Visibility {
    base: usize,
    /// `(epoch, documents visible from that epoch on)`, ascending.
    acks: Vec<(u64, usize)>,
    /// Ingest document ids were not contiguous: visibility is unknown.
    broken: bool,
}

impl Visibility {
    /// Appends every acknowledged ingest document to the oracle, in id
    /// order, and records the epoch each became visible at.
    pub fn new<'a>(
        oracle: &mut Collection,
        inputs: &Inputs,
        ingests: impl Iterator<Item = &'a IngestRec>,
    ) -> Visibility {
        let base = oracle.len();
        let mut docs: Vec<(u64, usize, u64)> = Vec::new();
        for r in ingests.filter(|r| r.ok) {
            let first = inputs.batches[r.batch].1;
            for (k, &id) in r.ids.iter().enumerate() {
                docs.push((id, first + k, r.epoch));
            }
        }
        docs.sort();
        let mut broken = false;
        let mut acks: Vec<(u64, usize)> = Vec::new();
        for (n, &(id, k, epoch)) in docs.iter().enumerate() {
            if id as usize != base + n {
                broken = true;
                break;
            }
            oracle
                .add_xml(&inputs.ingest_docs[k])
                .expect("ingest XML parses");
            match acks.last_mut() {
                Some(last) if last.0 == epoch => last.1 = base + n + 1,
                _ => acks.push((epoch, base + n + 1)),
            }
        }
        Visibility { base, acks, broken }
    }

    fn visible_at(&self, epoch: u64) -> usize {
        self.acks
            .iter()
            .take_while(|(e, _)| *e <= epoch)
            .last()
            .map_or(self.base, |&(_, n)| n)
    }

    pub fn check(
        &self,
        oracle: &mut Collection,
        xpath: &str,
        body: &str,
        limit: usize,
    ) -> Result<(), String> {
        if self.broken {
            return Err("ingest ids are not contiguous; cannot place documents".into());
        }
        let j = Json::parse(body)?;
        let epoch = j.u64("epoch").ok_or("no epoch")?;
        let n = self.visible_at(epoch);
        let got: MatchSet = j
            .arr("matches")
            .ok_or("no matches")?
            .iter()
            .map(|m| {
                let emb = m
                    .arr("embedding")
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_u64)
                    .collect();
                (m.u64("doc").unwrap_or(u64::MAX), emb)
            })
            .collect();
        let q = parse_xpath(xpath, oracle.symbols_mut()).map_err(|e| e.to_string())?;
        let mut want = MatchSet::new();
        let syms = oracle.symbols();
        for (id, t) in oracle.iter().take(n) {
            for emb in naive::naive_ordered(t, &q) {
                if preds_hold(t, syms, &q, &emb) {
                    want.insert((id as u64, emb.into_iter().map(u64::from).collect()));
                }
            }
        }
        let truncated = matches!(j.get("truncated"), Some(Json::Bool(true)));
        if got.len() != j.u64("count").unwrap_or(0) as usize {
            return Err("count disagrees with the matches listed".into());
        }
        if truncated {
            if got.len() != limit || !got.is_subset(&want) {
                return Err(format!(
                    "truncated answer: {} matches, {} not in the oracle's {}",
                    got.len(),
                    got.difference(&want).count(),
                    want.len()
                ));
            }
        } else if got != want {
            return Err(format!(
                "{} matches at epoch {epoch}, oracle has {} over {n} documents ({} missing, {} extra)",
                got.len(),
                want.len(),
                want.difference(&got).count(),
                got.difference(&want).count()
            ));
        }
        Ok(())
    }
}

/// Value predicates over a structural embedding: each holds iff the
/// image of its query node has a leaf child whose text it accepts
/// (`ValuePred::accepts`, the single definition of predicate truth).
fn preds_hold(t: &XmlTree, syms: &SymbolTable, q: &TwigQuery, emb: &[PostNum]) -> bool {
    q.preds().iter().all(|p| {
        let img = emb[(q.tree().postorder(p.node) - 1) as usize];
        let n = t.node_at(img);
        t.children(n)
            .iter()
            .any(|&c| t.is_leaf(c) && p.accepts(syms.name(t.label(c))))
    })
}

/// Compares this run's engine mix with earlier runs of the same
/// workload in this checkout and records it. A mix that differs is
/// flagged: the planner's EWMA uses wall times, so routing can differ
/// between runs of the same code, and a number must not silently
/// measure a different plan.
pub fn engine_mix_flag(
    work: &Path,
    workload: &str,
    seed: u64,
    engines: &BTreeMap<String, usize>,
) -> String {
    let dir = work.join("runs");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{workload}.mix"));
    let total = engines.values().sum::<usize>().max(1) as f64;
    let share = |e: &str| *engines.get(e).unwrap_or(&0) as f64 / total;
    let alt_share = 1.0 - share("prix_rp") - share("prix_ep");
    let rp_share = share("prix_rp");
    let set: Vec<&str> = engines.keys().map(String::as_str).collect();
    let set = set.join(",");
    let prev = std::fs::read_to_string(&path).unwrap_or_default();
    // Earlier runs: `seed rp_share alt_share engines`.
    let siblings: Vec<(f64, f64, String)> = prev
        .lines()
        .filter_map(|l| {
            let mut it = l.split(' ');
            let _seed = it.next()?;
            let rp = it.next()?.parse().ok()?;
            let alt = it.next()?.parse().ok()?;
            Some((rp, alt, it.next().unwrap_or("").to_string()))
        })
        .collect();
    let verdict = if siblings.is_empty() {
        "no sibling runs recorded yet".to_string()
    } else {
        let med = |f: fn(&(f64, f64, String)) -> f64| {
            let mut v: Vec<f64> = siblings.iter().map(f).collect();
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let (rp_med, alt_med) = (med(|s| s.0), med(|s| s.1));
        let same_set = siblings.iter().all(|s| s.2 == set);
        let tag =
            if same_set && (rp_share - rp_med).abs() <= 0.05 && (alt_share - alt_med).abs() <= 0.05
            {
                "same as"
            } else {
                "DIFFERS from"
            };
        format!(
            "{tag} {} sibling runs: engines {set}, rp share {rp_share:.3} (median {rp_med:.3}), alt share {alt_share:.3} (median {alt_med:.3})",
            siblings.len()
        )
    };
    let _ = std::fs::write(
        &path,
        format!("{prev}{seed} {rp_share:.4} {alt_share:.4} {set}\n"),
    );
    verdict
}

/// Keeps this untraced run's end-to-end figures so the traced run of
/// the same workload and seed can report its overhead.
pub fn remember(work: &Path, workload: &str, seed: u64, e2e: &[Metric]) {
    let dir = work.join("runs");
    let _ = std::fs::create_dir_all(&dir);
    let body: String = e2e
        .iter()
        .map(|m| format!("{} {}\n", m.name, m.value))
        .collect();
    let _ = std::fs::write(dir.join(format!("{workload}-{seed}.e2e")), body);
}

pub fn recall(work: &Path, workload: &str, seed: u64, name: &str) -> Option<f64> {
    let s =
        std::fs::read_to_string(work.join("runs").join(format!("{workload}-{seed}.e2e"))).ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// Deterministic inputs: the same seed yields a byte-identical
/// operation sequence, another seed a different one, and only
/// `read_hot` repeats query strings (so only it can hit the result
/// cache once warm).
pub fn self_test() -> bool {
    let mut ok = true;
    let mut expect = |cond: bool, what: String| {
        println!("{} {what}", if cond { "ok  " } else { "FAIL" });
        ok &= cond;
    };
    let seconds = 20.0;
    for spec in &WORKLOADS {
        let fp = |seed: u64, spec: &Spec| {
            let docs = gen::corpus(spec.scale, seed);
            let oracle = gen::oracle(&docs);
            let inputs = Inputs::new(spec, seed, seconds, &oracle);
            let fp = inputs.fingerprint(spec, seed, seconds, &docs);
            let first: Vec<String> = (0..2000).filter_map(|i| inputs.read(seed, i)).collect();
            (fp, first)
        };
        let (a, reads) = fp(11, spec);
        let (b, _) = fp(11, spec);
        let (c, _) = fp(12, spec);
        expect(
            a == b,
            format!(
                "{}: same seed, same operation sequence ({a:016x})",
                spec.name
            ),
        );
        expect(
            a != c,
            format!(
                "{}: other seed, other operation sequence ({c:016x})",
                spec.name
            ),
        );
        let distinct: HashSet<&String> = reads.iter().collect();
        if spec.hot {
            expect(
                distinct.len() < 400 && distinct.len() * 4 < reads.len(),
                format!(
                    "{}: {} distinct strings in 2000 reads; repeats hit the result cache",
                    spec.name,
                    distinct.len()
                ),
            );
        } else {
            expect(
                distinct.len() == reads.len(),
                format!(
                    "{}: 2000 reads, all distinct; no result-cache hits",
                    spec.name
                ),
            );
        }
    }
    let docs = gen::ingest_docs(5, 64);
    let ids: HashSet<String> = (0..64).map(gen::ingest_id).collect();
    expect(
        docs.iter()
            .all(|d| ids.iter().filter(|id| d.contains(id.as_str())).count() == 1),
        "ingest documents carry unique ids".into(),
    );
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    ok
}
