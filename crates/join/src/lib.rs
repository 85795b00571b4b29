//! # cij-join — intersection-join algorithms over TPR-trees
//!
//! Every join algorithm the paper describes or compares against:
//!
//! * [`improved_join`] — the synchronous traversal of two TPR-trees
//!   (Fig. 2 / Fig. 6), written once. The paper's three names for it are
//!   a window and a toggle set: [`naive_join`] (§II-C `NaiveJoin`) is the
//!   traversal over `[t_c, ∞)` with no technique, [`tc_join`] (§IV-B) the
//!   same with the window capped at `t_u + T_M`, and `ImprovedJoin`
//!   (§IV-D) adds the three TC-enabled improvement techniques,
//!   individually toggleable for the Fig. 8 ablation: plane sweep
//!   ([`techniques::PS`]), dimension selection ([`techniques::DS_PS`])
//!   and intersection check ([`techniques::IC`]).
//! * [`tp_join`] — §III: Tao & Papadias' time-parameterized join
//!   returning `(current pairs, expiry time, events)`; the building block
//!   of the `ETP-Join` competitor (assembled in `cij-core`).
//! * [`probe_batch`] — the maintenance join of §II-A phase 2 for a whole
//!   tick: a set of updated objects against one tree in a single descent
//!   that reads every node at most once.
//! * [`brute`] — the `O(|A|·|B|)` oracle every algorithm is tested
//!   against.
//! * [`parallel_improved_join`] / [`parallel_improved_multi_join`] —
//!   the multi-threaded driver for that traversal (any window, any
//!   technique set): the worklist is split at a top node-pair frontier
//!   and fanned out over [`fan_out_tasks`]' scoped threads, with outputs
//!   merged in traversal order so results (and counter totals) are
//!   bit-identical to the sequential runs.
//!
//! All algorithms read nodes strictly through the trees' buffer pools, so
//! their I/O is accounted exactly like the paper's. There is one node
//! read path (page → `NodeView` → lanes; only [`tp_join`]'s walks still
//! decode an owned `Node`), one synchronous traversal and one
//! sweep ([`ps_intersection_soa`] over [`SweepSoa`] buffers). The
//! per-visit buffers, node lanes included, live in a reusable
//! [`JoinScratch`] pool ([`improved_join_into`] is the buffer-reusing
//! entry point): a warm [`probe_batch`] and a warm `improved_join_into`
//! allocate nothing (pinned by the `no_alloc` integration test).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod brute;
mod counters;
mod improved;
mod naive;
mod pair;
mod parallel;
mod probe;
mod scratch;
mod sweep;
mod tp;

pub use counters::JoinCounters;
pub use improved::{improved_join, improved_join_into, techniques, Techniques};
pub use naive::{naive_join, tc_join};
pub use pair::{assert_pairs_equal, JoinPair};
pub use parallel::{fan_out_tasks, parallel_improved_join, parallel_improved_multi_join, JoinJob};
pub use probe::{probe_batch, ProbeHit};
pub use scratch::JoinScratch;
pub use sweep::{ps_intersection_soa, swept_region, SweepSoa};
pub use tp::{tp_join, tp_object_probe, TpAnswer, TpProbe};
