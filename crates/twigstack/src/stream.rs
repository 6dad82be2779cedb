//! Disk-resident element streams.
//!
//! The stack algorithms consume, per query-twig tag, a stream of element
//! instances sorted by `Left`. Streams live in the shared
//! [`RecordStore`] as chunks of encoded [`Element`]s and are read
//! sequentially through the buffer pool, so "pages read" reflects how
//! much of each input list an algorithm actually touched — the quantity
//! behind Tables 7–9.
//!
//! Each element is stored once. A stream's chunk records are also the
//! leaf level of its XB-tree ([`crate::xbtree`]): only a stream of more
//! than one chunk gets internal XB pages on top of its chunks.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use prix_storage::{BufferPool, PageId, RecordId, RecordStore, Result};
use prix_xml::Sym;

use crate::pos::Element;
use crate::xbtree::{self, XbCursor};

/// Elements per chunk record and so per XB-tree leaf (~7 KiB per chunk
/// of 24-byte elements).
pub(crate) const CHUNK: usize = 300;

/// Metadata of one on-disk stream.
#[derive(Debug)]
struct StreamMeta {
    /// This stream's slice of [`StreamStore::chunks`].
    chunks: Range<usize>,
    len: usize,
    /// Root of the XB-tree's internal levels; `None` when the stream
    /// has at most one chunk (that chunk is the whole tree).
    xb_root: Option<PageId>,
}

/// All per-tag streams of a collection, on disk, each with its XB-tree.
pub struct StreamStore {
    pool: Arc<BufferPool>,
    store: RecordStore,
    /// Every stream's chunk records, stream after stream.
    chunks: Vec<RecordId>,
    streams: HashMap<Sym, StreamMeta>,
}

impl StreamStore {
    /// Writes `streams` (each sorted by `Left`) into `pool`-backed
    /// storage, together with the internal levels of each stream's
    /// XB-tree. Streams are laid out in tag order, so page layout and
    /// page counts do not depend on hash order.
    pub fn build(pool: Arc<BufferPool>, streams: &HashMap<Sym, Vec<Element>>) -> Result<Self> {
        let mut store = RecordStore::create(Arc::clone(&pool))?;
        let mut syms: Vec<Sym> = streams.keys().copied().collect();
        syms.sort_unstable();
        let mut chunks = Vec::new();
        let mut metas = HashMap::with_capacity(streams.len());
        let mut buf = Vec::with_capacity(CHUNK * Element::ENCODED_LEN);
        for sym in syms {
            let elems = &streams[&sym];
            let first = chunks.len();
            let mut leaves = Vec::with_capacity((elems.len() + CHUNK - 1) / CHUNK);
            for chunk in elems.chunks(CHUNK) {
                buf.clear();
                for e in chunk {
                    buf.extend_from_slice(&e.encode());
                }
                let id = store.append(&buf)?;
                chunks.push(id);
                let max_r = chunk
                    .iter()
                    .map(|e| e.right)
                    .max()
                    .expect("chunks are non-empty");
                leaves.push((chunk[0].left, max_r, id.raw()));
            }
            let meta = StreamMeta {
                chunks: first..chunks.len(),
                len: elems.len(),
                xb_root: xbtree::build_internal(&pool, leaves)?,
            };
            metas.insert(sym, meta);
        }
        Ok(StreamStore {
            pool,
            store,
            chunks,
            streams: metas,
        })
    }

    fn meta(&self, sym: Sym) -> &StreamMeta {
        static EMPTY: StreamMeta = StreamMeta {
            chunks: 0..0,
            len: 0,
            xb_root: None,
        };
        self.streams.get(&sym).unwrap_or(&EMPTY)
    }

    /// Number of elements in the stream of `sym` (0 if absent).
    pub fn len(&self, sym: Sym) -> usize {
        self.meta(sym).len
    }

    /// Opens a sequential reader over the stream of `sym`.
    pub fn reader(&self, sym: Sym) -> StreamReader<'_> {
        let meta = self.meta(sym);
        StreamReader {
            store: &self.store,
            chunks: &self.chunks[meta.chunks.clone()],
            len: meta.len,
            chunk_idx: 0,
            buf: Vec::new(),
            pos_in_chunk: 0,
            consumed: 0,
        }
    }

    /// Opens an XB-tree cursor over the stream of `sym`, positioned at
    /// the root: an internal entry, or the first element when the
    /// stream fits in one chunk.
    pub fn xb_cursor(&self, sym: Sym) -> Result<XbCursor<'_>> {
        let meta = self.meta(sym);
        XbCursor::open(
            &self.pool,
            &self.store,
            &self.chunks[meta.chunks.clone()],
            meta.xb_root,
        )
    }

    /// All element chunks of `sym`, decoded (bulk access for tests).
    pub fn read_all(&self, sym: Sym) -> Result<Vec<Element>> {
        let mut r = self.reader(sym);
        let mut out = Vec::new();
        while let Some(e) = r.head()? {
            out.push(e);
            r.advance()?;
        }
        Ok(out)
    }
}

/// Sequential cursor over one stream.
pub struct StreamReader<'a> {
    store: &'a RecordStore,
    chunks: &'a [RecordId],
    len: usize,
    chunk_idx: usize,
    buf: Vec<u8>,
    pos_in_chunk: usize,
    consumed: usize,
}

impl<'a> StreamReader<'a> {
    /// The current element, or `None` at end of stream. Loads the
    /// current chunk on demand (a buffer-pool read).
    pub fn head(&mut self) -> Result<Option<Element>> {
        if self.consumed >= self.len {
            return Ok(None);
        }
        if self.buf.is_empty() {
            self.buf = self.store.read(self.chunks[self.chunk_idx])?;
            self.pos_in_chunk = 0;
        }
        let off = self.pos_in_chunk * Element::ENCODED_LEN;
        Ok(Some(Element::decode(
            &self.buf[off..off + Element::ENCODED_LEN],
        )))
    }

    /// Moves past the current element.
    pub fn advance(&mut self) -> Result<()> {
        if self.consumed >= self.len {
            return Ok(());
        }
        self.consumed += 1;
        self.pos_in_chunk += 1;
        if self.pos_in_chunk * Element::ENCODED_LEN >= self.buf.len() {
            self.chunk_idx += 1;
            self.buf.clear();
        }
        Ok(())
    }

    /// `true` once the stream is exhausted.
    pub fn eof(&self) -> bool {
        self.consumed >= self.len
    }

    /// Elements consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prix_storage::Pager;

    fn sample(n: u64) -> Vec<Element> {
        (0..n)
            .map(|i| Element {
                left: i * 2 + 1,
                right: i * 2 + 2,
                level: (i % 5) as u32 + 1,
                doc: (i / 10) as u32,
            })
            .collect()
    }

    fn store_with(n: u64) -> StreamStore {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 32));
        let mut m = HashMap::new();
        m.insert(Sym(1), sample(n));
        StreamStore::build(pool, &m).unwrap()
    }

    #[test]
    fn roundtrip_small() {
        let s = store_with(7);
        assert_eq!(s.len(Sym(1)), 7);
        assert_eq!(s.read_all(Sym(1)).unwrap(), sample(7));
    }

    #[test]
    fn roundtrip_across_chunks() {
        let s = store_with(1000);
        let all = s.read_all(Sym(1)).unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(all, sample(1000));
    }

    #[test]
    fn missing_stream_is_empty() {
        let s = store_with(3);
        assert_eq!(s.len(Sym(99)), 0);
        let mut r = s.reader(Sym(99));
        assert!(r.eof());
        assert_eq!(r.head().unwrap(), None);
    }

    #[test]
    fn reader_tracks_consumption() {
        let s = store_with(5);
        let mut r = s.reader(Sym(1));
        assert!(!r.eof());
        let mut seen = 0;
        while r.head().unwrap().is_some() {
            r.advance().unwrap();
            seen += 1;
        }
        assert_eq!(seen, 5);
        assert!(r.eof());
        assert_eq!(r.consumed(), 5);
        // advance past eof is a no-op
        r.advance().unwrap();
        assert_eq!(r.consumed(), 5);
    }

    #[test]
    fn sequential_read_costs_pages_once() {
        let pool = Arc::new(BufferPool::new(Pager::in_memory(), 64));
        let mut m = HashMap::new();
        m.insert(Sym(1), sample(3000));
        let s = StreamStore::build(Arc::clone(&pool), &m).unwrap();
        pool.clear().unwrap();
        let before = pool.snapshot();
        let _ = s.read_all(Sym(1)).unwrap();
        let d = pool.snapshot().since(&before);
        // 3000 elements * 24B / 8K pages ≈ 9+ pages, one physical read
        // each.
        assert!(d.physical_reads >= 9 && d.physical_reads <= 20, "{d:?}");
    }
}
