//! XB-Trees (Bruno et al. §5): the index TwigStackXB uses to skip
//! portions of its input streams.
//!
//! An XB-tree is a B-tree over the `Left` positions of one element
//! stream whose internal entries additionally carry the maximum `Right`
//! in their subtree. A cursor over the tree can sit at an *internal*
//! entry — a conservative `(minL, maxR)` summary of a whole subtree —
//! and either `advance` past it in one step (skipping all its leaves,
//! the I/O win of Table 7) or `drill_down` into it when a potential
//! match demands precision.
//!
//! The tree indexes the stream; it does not copy it. Its leaf level is
//! the stream's own chunk records in the [`StreamStore`], and only the
//! internal `(minL, maxR, child)` levels own pages. A stream that fits
//! in one chunk has no XB page at all: its cursor starts at the leaf.
//! All pages — internal pages and leaf chunks — are read through the
//! shared [`BufferPool`], so skipped pages are pages never read.
//!
//! [`StreamStore`]: crate::stream::StreamStore

use prix_storage::{BufferPool, PageId, RecordId, RecordStore, Result, PAGE_SIZE};

use crate::pos::Element;

const TYPE_INTERNAL: u8 = 11;
/// Internal page header: `[0]` type, `[1..3]` entry count, `[3]` 1 when
/// the entries point at leaf chunks, 0 when they point at internal
/// pages.
const HDR: usize = 4;
const ENTRY: usize = 24;
/// Entries per internal page.
pub const FANOUT: usize = (PAGE_SIZE - HDR) / ENTRY;

/// `(minL, maxR, child)`: a subtree summary. `child` is a raw
/// [`RecordId`] on the bottom internal level and a [`PageId`] above it.
type Entry = (u64, u64, u64);

/// Writes the internal levels over `leaves` (one entry per chunk of a
/// stream, in stream order) and returns the root page, or `None` when
/// there is at most one leaf and so nothing to index.
pub(crate) fn build_internal(pool: &BufferPool, leaves: Vec<Entry>) -> Result<Option<PageId>> {
    let mut level = leaves;
    let mut over_chunks = true;
    while level.len() > 1 {
        let mut next = Vec::with_capacity((level.len() + FANOUT - 1) / FANOUT);
        for chunk in level.chunks(FANOUT) {
            let page = pool.allocate_page()?;
            pool.with_page_mut(page, |p| {
                p[0] = TYPE_INTERNAL;
                p[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                p[3] = u8::from(over_chunks);
                for (i, &(min_l, max_r, child)) in chunk.iter().enumerate() {
                    let off = HDR + i * ENTRY;
                    p[off..off + 8].copy_from_slice(&min_l.to_le_bytes());
                    p[off + 8..off + 16].copy_from_slice(&max_r.to_le_bytes());
                    p[off + 16..off + 24].copy_from_slice(&child.to_le_bytes());
                }
            })?;
            let max_r = chunk
                .iter()
                .map(|c| c.1)
                .max()
                .expect("chunks are non-empty");
            next.push((chunk[0].0, max_r, page));
        }
        level = next;
        over_chunks = false;
    }
    Ok(if over_chunks { None } else { Some(level[0].2) })
}

/// One internal page on the cursor's path, decoded once per visit.
struct Frame {
    entries: Vec<Entry>,
    idx: usize,
    over_chunks: bool,
}

/// A cursor into one stream's XB-tree, possibly positioned at an
/// internal (summary) entry. Obtained from
/// [`crate::stream::StreamStore::xb_cursor`].
pub struct XbCursor<'a> {
    pool: &'a BufferPool,
    store: &'a RecordStore,
    /// Internal pages from the root down to the current position.
    path: Vec<Frame>,
    /// The decoded leaf chunk, meaningful while `at_leaf`.
    leaf: Vec<Element>,
    leaf_idx: usize,
    at_leaf: bool,
    eof: bool,
}

impl<'a> XbCursor<'a> {
    pub(crate) fn open(
        pool: &'a BufferPool,
        store: &'a RecordStore,
        chunks: &[RecordId],
        root: Option<PageId>,
    ) -> Result<Self> {
        let mut c = XbCursor {
            pool,
            store,
            path: Vec::new(),
            leaf: Vec::new(),
            leaf_idx: 0,
            at_leaf: false,
            eof: chunks.is_empty(),
        };
        match root {
            Some(page) => c.push_frame(page)?,
            None if !c.eof => c.load_leaf(chunks[0])?,
            None => {}
        }
        Ok(c)
    }

    /// Reads internal page `page` (one buffer-pool read) and descends
    /// into it at its first entry.
    fn push_frame(&mut self, page: PageId) -> Result<()> {
        let frame = self.pool.with_page(page, |p| {
            let n = u16::from_le_bytes([p[1], p[2]]) as usize;
            let entries = (0..n)
                .map(|i| {
                    let off = HDR + i * ENTRY;
                    let word = |k: usize| {
                        u64::from_le_bytes(
                            p[off + 8 * k..off + 8 * k + 8].try_into().expect("8 bytes"),
                        )
                    };
                    (word(0), word(1), word(2))
                })
                .collect();
            Frame {
                entries,
                idx: 0,
                over_chunks: p[3] == 1,
            }
        })?;
        self.path.push(frame);
        Ok(())
    }

    /// Reads and decodes leaf chunk `id` (one buffer-pool read) and
    /// positions the cursor at its first element.
    fn load_leaf(&mut self, id: RecordId) -> Result<()> {
        let bytes = self.store.read(id)?;
        self.leaf.clear();
        self.leaf.extend(
            bytes
                .chunks_exact(Element::ENCODED_LEN)
                .map(Element::decode),
        );
        self.leaf_idx = 0;
        self.at_leaf = true;
        Ok(())
    }

    fn entry(&self) -> Entry {
        let f = self.path.last().expect("internal position has a frame");
        f.entries[f.idx]
    }

    /// `true` once the cursor moved past the last entry.
    pub fn eof(&self) -> bool {
        self.eof
    }

    /// `Left` of the current position (`minL` at internal entries);
    /// `u64::MAX` at eof.
    pub fn left(&self) -> u64 {
        if self.eof {
            u64::MAX
        } else if self.at_leaf {
            self.leaf[self.leaf_idx].left
        } else {
            self.entry().0
        }
    }

    /// `Right` of the current position (`maxR` at internal entries);
    /// `u64::MAX` at eof.
    pub fn right(&self) -> u64 {
        if self.eof {
            u64::MAX
        } else if self.at_leaf {
            self.leaf[self.leaf_idx].right
        } else {
            self.entry().1
        }
    }

    /// Is the cursor at a leaf-level (exact) element?
    pub fn is_exact(&self) -> bool {
        !self.eof && self.at_leaf
    }

    /// The exact element under the cursor.
    ///
    /// # Panics
    /// Panics if the cursor is at an internal entry or eof.
    pub fn element(&self) -> Element {
        assert!(self.is_exact(), "element() at an internal entry or eof");
        self.leaf[self.leaf_idx]
    }

    /// Moves to the next entry at the current level, climbing to the
    /// parent level when a leaf or page is exhausted (Bruno et al.'s
    /// `advance`: climbing re-summarizes, it never re-reads skipped
    /// leaves).
    pub fn advance(&mut self) -> Result<()> {
        if self.eof {
            return Ok(());
        }
        if self.at_leaf {
            self.leaf_idx += 1;
            if self.leaf_idx < self.leaf.len() {
                return Ok(());
            }
            self.at_leaf = false;
        }
        while let Some(f) = self.path.last_mut() {
            f.idx += 1;
            if f.idx < f.entries.len() {
                return Ok(());
            }
            self.path.pop();
        }
        self.eof = true;
        Ok(())
    }

    /// Descends into the subtree under the current internal entry.
    /// No-op at leaf level.
    pub fn drill_down(&mut self) -> Result<()> {
        if self.eof || self.at_leaf {
            return Ok(());
        }
        let child = self.entry().2;
        if self
            .path
            .last()
            .expect("internal position has a frame")
            .over_chunks
        {
            self.load_leaf(RecordId::from_raw(child))
        } else {
            self.push_frame(child)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    use prix_storage::Pager;
    use prix_xml::Sym;

    use crate::stream::{StreamStore, CHUNK};

    fn elems(n: u64) -> Vec<Element> {
        (0..n)
            .map(|i| Element {
                left: 2 * i + 1,
                right: 2 * i + 2,
                level: 1,
                doc: 0,
            })
            .collect()
    }

    fn store(n: u64) -> (StreamStore, Arc<BufferPool>) {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 256));
        let mut m = HashMap::new();
        m.insert(Sym(1), elems(n));
        (StreamStore::build(Arc::clone(&pool), &m).unwrap(), pool)
    }

    /// Drills into every internal entry and collects the leaves.
    fn drill_all(c: &mut XbCursor<'_>) -> Vec<Element> {
        let mut seen = Vec::new();
        while !c.eof() {
            if c.is_exact() {
                seen.push(c.element());
                c.advance().unwrap();
            } else {
                c.drill_down().unwrap();
            }
        }
        seen
    }

    #[test]
    fn empty_tree_cursor_is_eof() {
        let (s, _) = store(0);
        let c = s.xb_cursor(Sym(1)).unwrap();
        assert!(c.eof());
        assert_eq!(c.left(), u64::MAX);
        let c = s.xb_cursor(Sym(99)).unwrap();
        assert!(c.eof(), "a tag without a stream is empty");
    }

    #[test]
    fn single_chunk_scan() {
        let (s, _) = store(10);
        let mut c = s.xb_cursor(Sym(1)).unwrap();
        assert!(c.is_exact(), "a one-chunk tree starts at leaf level");
        let mut seen = Vec::new();
        while !c.eof() {
            assert!(c.is_exact());
            seen.push(c.element().left);
            c.advance().unwrap();
        }
        assert_eq!(seen, (0..10).map(|i| 2 * i + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn drilldown_yields_exactly_the_stream() {
        let c = CHUNK as u64;
        // Two internal levels need more chunks than one page indexes.
        let two_levels = (FANOUT * CHUNK + 1) as u64;
        for n in [0, 1, c - 1, c, c + 1, c * c + 1, two_levels] {
            let (s, _) = store(n);
            let mut cur = s.xb_cursor(Sym(1)).unwrap();
            assert_eq!(
                cur.is_exact(),
                (1..=c).contains(&n),
                "n={n}: only a one-chunk stream starts at leaf level"
            );
            assert_eq!(drill_all(&mut cur), elems(n), "n={n}");
            assert!(cur.eof());
            cur.advance().unwrap();
            assert!(cur.eof(), "advance past eof is a no-op");
        }
    }

    #[test]
    fn leaves_are_the_stream_chunks() {
        // One chunk: no XB page at all, the stream's chunk is the tree.
        let (_, pool) = store(CHUNK as u64);
        let one_chunk = pool.pager().num_pages();
        let (_, pool) = store(CHUNK as u64 + 1);
        let two_chunks = pool.pager().num_pages();
        let (_, pool) = store(0);
        let empty = pool.pager().num_pages();
        // The full chunk is one overflow page; the second chunk (one
        // element) lands on the store's data page; one internal page
        // indexes both.
        assert_eq!(one_chunk, empty + 1);
        assert_eq!(two_chunks, one_chunk + 1);
    }

    #[test]
    fn advancing_internal_entries_skips_pages() {
        let n = (CHUNK * 8) as u64;
        let (s, pool) = store(n);
        pool.clear().unwrap();
        let before = pool.snapshot();
        let mut c = s.xb_cursor(Sym(1)).unwrap();
        // Skip everything at the internal level.
        while !c.eof() {
            assert!(!c.is_exact());
            c.advance().unwrap();
        }
        let skipped = pool.snapshot().since(&before);
        assert!(
            skipped.physical_reads <= 2,
            "skipping reads only the root, got {skipped:?}"
        );
        // Full drill-down for comparison.
        pool.clear().unwrap();
        let before = pool.snapshot();
        let mut c = s.xb_cursor(Sym(1)).unwrap();
        let count = drill_all(&mut c).len();
        let full = pool.snapshot().since(&before);
        assert_eq!(count as u64, n);
        assert!(
            full.physical_reads > skipped.physical_reads * 3,
            "drilling reads all leaf chunks ({full:?} vs {skipped:?})"
        );
    }

    #[test]
    fn a_leaf_visit_is_one_pool_read() {
        let n = (CHUNK * 4) as u64;
        let (s, pool) = store(n);
        let before = pool.snapshot();
        let mut c = s.xb_cursor(Sym(1)).unwrap();
        assert_eq!(drill_all(&mut c).len() as u64, n);
        let d = pool.snapshot().since(&before);
        // The root page, then one read per chunk.
        assert_eq!(d.logical_reads, 1 + 4, "{d:?}");
    }

    #[test]
    fn internal_summaries_bound_their_subtrees() {
        let n = (CHUNK * 2 + 5) as u64;
        let (s, _) = store(n);
        let mut c = s.xb_cursor(Sym(1)).unwrap();
        assert!(!c.is_exact());
        let (lo, hi) = (c.left(), c.right());
        c.drill_down().unwrap();
        let mut count = 0;
        while !c.eof() && count < CHUNK {
            assert!(c.is_exact());
            let e = c.element();
            assert!(e.left >= lo && e.right <= hi);
            count += 1;
            c.advance().unwrap();
        }
        assert_eq!(count, CHUNK);
    }
}
