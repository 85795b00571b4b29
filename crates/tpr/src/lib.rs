//! # cij-tpr — a disk-resident TPR/TPR*-tree
//!
//! The access method underneath every join algorithm in *Continuous
//! Intersection Joins Over Moving Objects* (Zhang et al., ICDE 2008,
//! §II-B): a TPR-tree ([Šaltenis et al., SIGMOD 2000]) built with the
//! improved, integral-metric heuristics of the TPR*-tree ([Tao et al.,
//! VLDB 2003]).
//!
//! A TPR-tree is an R*-tree whose node regions carry velocity bounding
//! rectangles: a node's moving MBR conservatively bounds its children at
//! every future instant. Quality metrics that the R*-tree evaluates on
//! static rectangles (area, margin, overlap, center distance) become
//! *integrals over a horizon* `[t, t + H]`.
//!
//! Faithfulness notes (also in `DESIGN.md`):
//! * insertion chooses subtrees by minimal *enlargement integral*, with
//!   area-integral tie-break — the TPR/TPR* penalty;
//! * node overflow triggers one R*-style forced reinsert per level per
//!   insertion (the 30 % entries farthest from the node center over the
//!   horizon), then an R*-style split evaluated on margin/overlap/area
//!   integrals;
//! * deletion tightens bounds along the path (TPR*'s *active tightening*)
//!   and dissolves under-full nodes by reinsertion;
//! * nodes are serialized to 4 KB pages and all accesses go through the
//!   [`BufferPool`](cij_storage::BufferPool), so I/O counts follow the
//!   paper's methodology.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod entry;
mod error;
mod node;
mod tree;
mod view;

pub use config::TreeConfig;
pub use entry::{ChildRef, Entry, IdBuildHasher, IdHasher, IdMap, IdSet, ObjectId};
pub use error::{TprError, TprResult};
pub use node::Node;
pub use tree::{TprTree, TreeStats};
pub use view::{EntryLanes, NodeView, SOA_HEADER_BYTES, SOA_MAGIC, SOA_SLOTS, SOA_VERSION};
