//! TwigStack-family baseline (Bruno, Koudas & Srivastava, SIGMOD 2002),
//! as evaluated in §6 of the PRIX paper.
//!
//! These are the *holistic stack join* algorithms over the positional
//! representation of XML elements:
//!
//! * [`pos`] — region encoding `(Left, Right, Level, DocId)` with
//!   globally unique `(Left, Right)` ranges across the collection, and
//!   per-tag element streams sorted by `Left`,
//! * [`stream`] — disk-resident streams read sequentially through the
//!   shared buffer pool (the input lists whose pages the paper counts),
//! * [`xbtree`] — XB-Trees: a B-tree over `Left` whose internal entries
//!   carry the max `Right` of their subtree, letting TwigStackXB skip
//!   stream regions; its leaves are the stream's own chunks,
//! * [`join`] — `PathStack`, `TwigStack` and `TwigStackXB` with the
//!   `getNext` core, stack encoding of partial solutions, path-solution
//!   emission, and the merge post-processing step (where parent-child
//!   edges are finally enforced — the *sub-optimality* the PRIX paper
//!   exploits with query Q8, §6.4.2).

pub mod engine;
pub mod join;
pub mod pathstack;
pub mod pos;
pub mod stream;
pub mod xbtree;

pub use engine::{Substrate, TwigStackEngine};
pub use join::{Algorithm, JoinStats, TwigJoin, TwigResult};
pub use pathstack::{path_stack, NotAPath};
pub use pos::{encode_collection, Element};
pub use stream::{StreamReader, StreamStore};
pub use xbtree::XbCursor;
