//! Deterministic inputs: the merged collection, the query strings, the
//! ingest batches and their schedule, all derived from `--seed`.
//!
//! The server only ever sees what this module produces: XML text for
//! the bulk build and for `POST /documents`, and XPath strings for
//! `GET /query`.

use std::collections::HashSet;

use prix_datagen::{values, Dataset, SplitMix64};
use prix_xml::{write_document, Collection, NodeId, NodeKind, SymbolTable, XmlTree};

/// Scale of the small merged database (3,900 documents).
pub const SMALL: f64 = 0.1;
/// Scale of the large merged database (39,000 documents).
pub const LARGE: f64 = 1.0;

/// The merged collection: scale `scale` of the dblp, swissprot,
/// treebank and shop generators, serialized to XML in build order.
pub fn corpus(scale: f64, seed: u64) -> Vec<String> {
    let parts = [
        prix_datagen::generate(Dataset::Dblp, scale, seed ^ 0xD0),
        prix_datagen::generate(Dataset::Swissprot, scale, seed ^ 0x5A),
        prix_datagen::generate(Dataset::Treebank, scale, seed ^ 0x7B),
        values::generate(&values::ShopConfig::scaled(scale, seed ^ 0x5B)),
    ];
    let mut docs = Vec::new();
    for c in &parts {
        for (_, t) in c.iter() {
            docs.push(write_document(t, c.symbols()));
        }
    }
    docs
}

/// Parses the corpus into one in-memory collection (document ids equal
/// build order), the naive oracle's input and the binding source.
pub fn oracle(docs: &[String]) -> Collection {
    let mut c = Collection::new();
    for d in docs {
        c.add_xml(d).expect("generated XML parses");
    }
    c
}

/// The 17 planted queries with their planted match counts.
pub fn planted() -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = prix_datagen::paper_queries()
        .iter()
        .map(|q| (q.xpath.to_string(), q.expected_matches))
        .collect();
    v.extend(
        prix_datagen::predicate_queries()
            .iter()
            .map(|q| (q.xpath.to_string(), q.expected_matches)),
    );
    v
}

fn text<'a>(t: &XmlTree, syms: &'a SymbolTable, n: NodeId) -> Option<&'a str> {
    match t.children(n) {
        [c] if t.kind(*c) == NodeKind::Text => {
            let s = syms.name(t.label(*c));
            // Literals are written inside double quotes.
            (!s.contains('"') && !s.contains('\\')).then_some(s)
        }
        _ => None,
    }
}

fn label<'a>(t: &XmlTree, syms: &'a SymbolTable, n: NodeId) -> &'a str {
    syms.name(t.label(n))
}

fn elem_children(t: &XmlTree, n: NodeId) -> Vec<NodeId> {
    t.children(n)
        .iter()
        .copied()
        .filter(|&c| t.kind(c) == NodeKind::Element)
        .collect()
}

/// First child of `n` labelled `l`, after position `after`.
fn child(
    t: &XmlTree,
    syms: &SymbolTable,
    n: NodeId,
    l: &str,
    after: usize,
) -> Option<(usize, NodeId)> {
    elem_children(t, n)
        .into_iter()
        .enumerate()
        .skip(after)
        .find(|&(_, c)| label(t, syms, c) == l)
}

/// Templates: Q1–Q6 and QP1–QP8 shapes, and three draws of treebank
/// twigs standing in for Q7–Q9.
pub const TEMPLATES: usize = 17;

/// Draws template bindings (the shapes of Q1–Q9 and QP1–QP8 plus
/// random treebank twigs) with literals read off a randomly chosen
/// document of the collection, so that most bindings have matches
/// under ordered-inclusion semantics.
pub struct Binder<'a> {
    c: &'a Collection,
    by_root: Vec<(String, Vec<usize>)>,
}

impl<'a> Binder<'a> {
    pub fn new(c: &'a Collection) -> Binder<'a> {
        let mut by_root: Vec<(String, Vec<usize>)> = Vec::new();
        for (id, t) in c.iter() {
            let l = label(t, c.symbols(), t.root()).to_string();
            match by_root.iter_mut().find(|(k, _)| *k == l) {
                Some((_, v)) => v.push(id as usize),
                None => by_root.push((l, vec![id as usize])),
            }
        }
        Binder { c, by_root }
    }

    fn doc(&self, r: &mut SplitMix64, roots: &[&str]) -> Option<&'a XmlTree> {
        let root = roots[r.below(roots.len() as u64) as usize];
        let ids = &self.by_root.iter().find(|(k, _)| k == root)?.1;
        Some(self.c.doc(ids[r.below(ids.len() as u64) as usize] as u32))
    }

    /// One binding of a randomly chosen template.
    pub fn draw(&self, r: &mut SplitMix64) -> Option<String> {
        let t = r.below(TEMPLATES as u64) as usize;
        self.bind(t, r)
    }

    /// One binding of template `t`; `None` when the drawn document
    /// lacks the template's parts (the caller draws again).
    pub fn bind(&self, t: usize, r: &mut SplitMix64) -> Option<String> {
        let s = self.c.symbols();
        match t {
            0 => {
                let t = self.doc(r, &["inproceedings"])?;
                let (i, a) = child(t, s, t.root(), "author", 0)?;
                let (_, y) = child(t, s, t.root(), "year", i + 1)?;
                Some(format!(
                    r#"//inproceedings[./author="{}"][./year="{}"]"#,
                    text(t, s, a)?,
                    text(t, s, y)?
                ))
            }
            1 => {
                let t = self.doc(r, &["inproceedings", "article", "www"])?;
                let kids = elem_children(t, t.root());
                if kids.len() < 2 {
                    return None;
                }
                let i = r.below(kids.len() as u64 - 1) as usize;
                let j = i + 1 + r.below((kids.len() - i - 1) as u64) as usize;
                let (a, b) = (label(t, s, kids[i]), label(t, s, kids[j]));
                Some(format!("//{}[./{a}]/{b}", label(t, s, t.root())))
            }
            2 => {
                let t = self.doc(r, &["inproceedings", "article", "www"])?;
                let (_, n) = child(t, s, t.root(), "title", 0)?;
                Some(format!(r#"//title[text()="{}"]"#, text(t, s, n)?))
            }
            3 => {
                let t = self.doc(r, &["Entry"])?;
                let (_, n) = child(t, s, t.root(), "Keyword", 0)?;
                Some(format!(r#"//Entry[./Keyword="{}"]"#, text(t, s, n)?))
            }
            4 => {
                let t = self.doc(r, &["Entry"])?;
                let (_, rf) = child(t, s, t.root(), "Ref", 0)?;
                let (i, a) = child(t, s, rf, "Author", 0)?;
                let (_, b) = child(t, s, rf, "Author", i + 1)?;
                Some(format!(
                    r#"//Entry/Ref[./Author="{}"][./Author="{}"]"#,
                    text(t, s, a)?,
                    text(t, s, b)?
                ))
            }
            5 => {
                let t = self.doc(r, &["Entry"])?;
                let (_, n) = child(t, s, t.root(), "Org", 0)?;
                Some(format!(
                    r#"//Entry[./Org="{}"][.//Author]//from"#,
                    text(t, s, n)?
                ))
            }
            6..=8 => self.treebank_twig(r),
            9 => {
                let t = self.doc(r, &["item"])?;
                let (i, id) = child(t, s, t.root(), "id", 0)?;
                let (_, q) = child(t, s, t.root(), "quantity", i + 1)?;
                Some(format!(
                    r#"//item[id = "{}"][quantity = {}]"#,
                    text(t, s, id)?,
                    text(t, s, q)?
                ))
            }
            10 => {
                let t = self.doc(r, &["item"])?;
                let (_, n) = child(t, s, t.root(), "name", 0)?;
                Some(format!(r#"//item[name = "{}"]"#, text(t, s, n)?))
            }
            11 => {
                let t = self.doc(r, &["item"])?;
                let (_, n) = child(t, s, t.root(), "category", 0)?;
                Some(format!(r#"//item[category = "{}"]"#, text(t, s, n)?))
            }
            12 => {
                let t = self.doc(r, &["item"])?;
                let (i, a) = child(t, s, t.root(), "tag", 0)?;
                let (_, b) = child(t, s, t.root(), "tag", i + 1)?;
                Some(format!(
                    r#"//item[tag = "{}"][tag = "{}"]"#,
                    text(t, s, a)?,
                    text(t, s, b)?
                ))
            }
            13 => {
                let t = self.doc(r, &["order"])?;
                let (_, n) = child(t, s, t.root(), "buyer", 0)?;
                Some(format!(r#"//order[buyer = "{}"]//sku"#, text(t, s, n)?))
            }
            14 => {
                let t = self.doc(r, &["item"])?;
                let (_, n) = child(t, s, t.root(), "price", 0)?;
                let p: f64 = text(t, s, n)?.parse().ok()?;
                // Small thresholds keep the answer selective.
                Some(format!("//item[price < {}]", (p / 40.0).ceil() as u64 + 10))
            }
            15 => {
                let t = self.doc(r, &["item"])?;
                let (_, n) = child(t, s, t.root(), "quantity", 0)?;
                let q: u64 = text(t, s, n)?.parse().ok()?;
                Some(format!("//item[quantity >= {}]", 480 + q % 20))
            }
            _ => {
                let t = self.doc(r, &["item"])?;
                let (_, n) = child(t, s, t.root(), "id", 0)?;
                let id = text(t, s, n)?;
                let cut = (6 + r.below(3) as usize).min(id.len());
                Some(format!(r#"//item[starts-with(./id, "{}")]"#, &id[..cut]))
            }
        }
    }

    /// A random twig read off a treebank parse tree: either a path with
    /// one ancestor-descendant step (`//A//B/C`, the Q7 shape) or a
    /// node with two ordered children (`//A[./B]/C`, the Q8/Q9 shape).
    fn treebank_twig(&self, r: &mut SplitMix64) -> Option<String> {
        let s = self.c.symbols();
        let t = self.doc(r, &["S"])?;
        let nodes: Vec<NodeId> = t
            .nodes()
            .filter(|&n| t.kind(n) == NodeKind::Element)
            .collect();
        let n = nodes[r.below(nodes.len() as u64) as usize];
        if r.chance(0.5) {
            let p = t.parent(n)?;
            let mut a = t.parent(p)?;
            for _ in 0..r.below(3) {
                match t.parent(a) {
                    Some(up) => a = up,
                    None => break,
                }
            }
            Some(format!(
                "//{}//{}/{}",
                label(t, s, a),
                label(t, s, p),
                label(t, s, n)
            ))
        } else {
            let kids = elem_children(t, n);
            if kids.len() < 2 {
                return None;
            }
            let i = r.below(kids.len() as u64 - 1) as usize;
            let j = i + 1 + r.below((kids.len() - i - 1) as u64) as usize;
            Some(format!(
                "//{}[./{}]/{}",
                label(t, s, n),
                label(t, s, kids[i]),
                label(t, s, kids[j])
            ))
        }
    }

    /// A stationary request sequence of `n` reads. Template `t` gets a
    /// share of the reads proportional to the distinct bindings the
    /// collection offers for it (at most `cap`), spread evenly over the
    /// sequence (each template's k-th use is due at `k / share`), and
    /// each use takes that template's next unused binding. The mix is
    /// the same at every point of the sequence, and no string repeats
    /// before all `Σ pools` bindings have been sent once.
    pub fn sequence(
        &self,
        r: &mut SplitMix64,
        n: usize,
        cap: usize,
        avoid: &HashSet<String>,
    ) -> Vec<String> {
        let mut syms = self.c.symbols().clone();
        // Shared by every template: the three twig templates can draw
        // the same string.
        let mut seen = HashSet::new();
        let pools: Vec<Vec<String>> = (0..TEMPLATES)
            .map(|t| {
                let mut pool = Vec::new();
                for _ in 0..20 * cap {
                    if pool.len() == cap {
                        break;
                    }
                    if let Some(q) = self.bind(t, r) {
                        if !avoid.contains(&q)
                            && !seen.contains(&q)
                            && prix_core::parse_xpath(&q, &mut syms).is_ok()
                        {
                            seen.insert(q.clone());
                            pool.push(q);
                        }
                    }
                }
                pool
            })
            .collect();
        let mut used = [0usize; TEMPLATES];
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let due = |t: usize| (used[t] + 1) as f64 / pools[t].len() as f64;
            let Some(t) = (0..TEMPLATES)
                .filter(|&t| !pools[t].is_empty())
                .min_by(|&a, &b| due(a).total_cmp(&due(b)))
            else {
                break;
            };
            out.push(pools[t][used[t] % pools[t].len()].clone());
            used[t] += 1;
        }
        out
    }

    /// Up to `n` distinct bindings, each parsing as XPath (fewer when
    /// the collection runs out of them: draws stop after `20 n` tries).
    pub fn distinct(&self, r: &mut SplitMix64, n: usize, avoid: &HashSet<String>) -> Vec<String> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut out = Vec::with_capacity(n);
        let mut syms = self.c.symbols().clone();
        for _ in 0..20 * n {
            if out.len() == n {
                break;
            }
            if let Some(q) = self.draw(r) {
                if !avoid.contains(&q)
                    && prix_core::parse_xpath(&q, &mut syms).is_ok()
                    && seen.insert(q.clone())
                {
                    out.push(q);
                }
            }
        }
        out
    }
}

/// A Zipf(1) sampler over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for k in 1..=n {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for x in &mut cdf {
            *x /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, r: &mut SplitMix64) -> usize {
        let u = (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Fresh shop `item` documents for ingest, from a generator run with a
/// different seed. Records carrying a planted value are skipped so the
/// planted counts stay exact, and each id is rewritten to a unique
/// `SKU-Z` literal so every acknowledged document can be looked up.
pub fn ingest_docs(seed: u64, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n {
        let c = values::generate(&values::ShopConfig::scaled(0.05, seed ^ 0x1A6E57 ^ round));
        round += 1;
        for (_, t) in c.iter() {
            if out.len() == n {
                break;
            }
            let s = c.symbols();
            if label(t, s, t.root()) != "item" {
                continue;
            }
            let get = |l: &str| child(t, s, t.root(), l, 0).and_then(|(_, n)| text(t, s, n));
            let id = get("id").unwrap_or("");
            let price: f64 = get("price").and_then(|p| p.parse().ok()).unwrap_or(0.0);
            let qty: u64 = get("quantity").and_then(|q| q.parse().ok()).unwrap_or(77);
            let xml = write_document(t, s);
            let planted = id == "SKU-HOT"
                || id.starts_with("SKU-X")
                || price < 10.0
                || qty == 77
                || qty >= 500
                || xml.contains("One Of A Kind Widget")
                || xml.contains(">heirloom<")
                || xml.contains(">clearance<")
                || xml.contains(">vintage<");
            if planted {
                continue;
            }
            let fresh = format!("SKU-Z{:06}", out.len());
            out.push(xml.replacen(&format!("<id>{id}</id>"), &format!("<id>{fresh}</id>"), 1));
        }
    }
    out
}

/// The unique id literal of ingest document `k`.
pub fn ingest_id(k: usize) -> String {
    format!("SKU-Z{k:06}")
}

/// FNV-1a over a sequence of byte strings (with separators), the
/// fingerprint that proves two runs saw the same operations.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xFF]) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The template a query string was bound from (the planted queries
/// report as the template of their shape).
pub fn family(q: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 13] = [
        ("//inproceedings[./author=", "Q1"),
        ("//title[", "Q3"),
        ("//Entry[./Keyword", "Q4"),
        ("//Entry/Ref", "Q5"),
        ("//Entry[./Org", "Q6"),
        ("//item[id", "QP1"),
        ("//item[name", "QP2"),
        ("//item[category", "QP3"),
        ("//item[tag", "QP4"),
        ("//order", "QP5"),
        ("//item[price", "QP6"),
        ("//item[quantity", "QP7"),
        ("//item[starts-with", "QP8"),
    ];
    if let Some(&(_, f)) = PREFIXES.iter().find(|(p, _)| q.starts_with(p)) {
        return f;
    }
    let root = q
        .trim_start_matches('/')
        .split(['/', '['])
        .next()
        .unwrap_or("");
    match root {
        "inproceedings" | "article" | "www" | "book" | "incollection" | "phdthesis"
        | "mastersthesis" | "proceedings" => "Q2",
        _ => "twig",
    }
}
