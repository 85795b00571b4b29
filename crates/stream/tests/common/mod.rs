//! Shared helpers for the stream integration tests.

#![allow(dead_code)] // each test crate uses a different subset

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use cij_core::{ContinuousJoinEngine, EngineConfig, MtbEngine};
use cij_geom::{MovingRect, Rect, Time};
use cij_storage::{BufferPool, BufferPoolConfig, InMemoryStore};
use cij_tpr::{ObjectId, TprResult};
use cij_workload::{MovingObject, ObjectUpdate, Params, SetTag};

/// A WAL path in the system temp dir, removed on drop.
pub struct TempWal(pub PathBuf);

impl TempWal {
    pub fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("cij-stream-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Self(path)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// MTB engine factory over a fresh in-memory pool.
pub fn mtb_factory() -> impl Fn(
    &EngineConfig,
    &[MovingObject],
    &[MovingObject],
    Time,
) -> TprResult<Box<dyn ContinuousJoinEngine>> {
    |config, a, b, start| {
        let pool = BufferPool::new(
            Arc::new(InMemoryStore::new()),
            BufferPoolConfig::with_capacity(256),
        );
        Ok(Box::new(MtbEngine::new(pool, *config, a, b, start)?))
    }
}

/// Deterministic chained-update generator with explicit commit.
///
/// [`UpdateStream`](cij_workload::UpdateStream) advances its internal
/// state the moment it emits an update, so an update the service
/// *refuses* leaves the generator and the engine permanently out of
/// sync (the next update would chain from a trajectory the engine never
/// saw). The shed tests need precise control over which submissions
/// land: [`candidate`](Self::candidate) proposes an update continuing
/// the object's current chain without side effects, and only
/// [`commit`](Self::commit) registers it — a refused candidate is
/// simply dropped and the chain stays intact.
pub struct ChainedGen {
    side: f64,
    space: f64,
    ids: Vec<(ObjectId, SetTag)>,
    states: HashMap<ObjectId, (MovingRect, Time)>,
}

impl ChainedGen {
    pub fn new(params: &Params, a: &[MovingObject], b: &[MovingObject], now: Time) -> Self {
        let mut ids = Vec::with_capacity(a.len() + b.len());
        let mut states = HashMap::with_capacity(a.len() + b.len());
        for (objs, tag) in [(a, SetTag::A), (b, SetTag::B)] {
            for o in objs {
                ids.push((o.id, tag));
                states.insert(o.id, (o.mbr, now));
            }
        }
        Self {
            side: params.object_side(),
            space: params.space,
            ids,
            states,
        }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// A chained update for the `index`-th object (mod the population)
    /// at `at`: continues from the current committed trajectory, with a
    /// pseudo-random but fully deterministic velocity derived from
    /// `(index, salt)`. Does NOT advance the chain.
    pub fn candidate(&self, index: usize, salt: u64, at: Time) -> ObjectUpdate {
        let (id, set) = self.ids[index % self.ids.len()];
        let (old_mbr, last_update) = self.states[&id];
        let here = old_mbr.at(at);
        let x = here.lo[0].clamp(0.0, self.space - self.side);
        let y = here.lo[1].clamp(0.0, self.space - self.side);
        let h = (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0x85EB_CA6B));
        let mut v = [((h >> 8) % 5) as f64 - 2.0, ((h >> 16) % 5) as f64 - 2.0];
        // Reflect inward near borders so objects stay in the domain.
        let margin = 0.05 * self.space;
        if x < margin {
            v[0] = v[0].abs();
        } else if x > self.space - self.side - margin {
            v[0] = -v[0].abs();
        }
        if y < margin {
            v[1] = v[1].abs();
        } else if y > self.space - self.side - margin {
            v[1] = -v[1].abs();
        }
        ObjectUpdate {
            id,
            set,
            old_mbr,
            last_update,
            new_mbr: MovingRect::rigid(Rect::new([x, y], [x + self.side, y + self.side]), v, at),
        }
    }

    /// Registers a previously issued candidate as the object's new
    /// committed trajectory. Call exactly when the service accepted it.
    pub fn commit(&mut self, u: &ObjectUpdate, at: Time) {
        self.states.insert(u.id, (u.new_mbr, at));
    }
}

#[path = "../../../storage/tests/common/bytes.rs"]
mod bytes;
#[allow(unused_imports)] // each test crate uses a different subset
pub use bytes::*;

/// The journal file `golden_bytes.rs`'s scripted life left under the first `PROTOCOL_VERSION` 1
/// build: seven framed records.
pub const GOLDEN_JOURNAL: &str = "\
    53010000d8a223b0c10101000000000000000002000000010000000000000000000000000000000000000000\
    00f03f000000000000000000000000000000000000000000000000000000000000f03f000000000000000000\
    0000000000000000000000000000000300000000000000000000000000244000000000000026400000000000\
    00000000000000000000000000000000000000000000000000f03f0000000000000000000000000000000000\
    00000000000000020000000200000000000000000000000000e03f000000000000f83f000000000000000000\
    000000000000000000000000000000000000000000f03f000000000000000000000000000000000000000000\
    0000000400000000000000000000000000344000000000000035400000000000000000000000000000000000\
    00000000000000000000000000f03f0000000000000000000000000000000000000000000000000c000000d3\
    366d9ac1010300000000000000000014000000b6c527dbc1010301000000000000000102000000000000002c\
    000000eb8b6219c1010302000000000000000200000000000000000000000000001440000000000000f0bf00\
    000000000004400b000000f0782475c101040100000000000000b0000000109d3e68c10102000000000000f0\
    3f01000000030000000000000001000000000000244000000000000026400000000000000000000000000000\
    00000000000000000000000000000000f03f0000000000000000000000000000000000000000000000000000\
    00000000000000000000008033400000000000803440000000000000d03f000000000000d03f000000000000\
    0000000000000000f03f00000000000000000000000000000000000000000000f03f140000004a0b49ccc101\
    05000000000000f03f010100000000000000";
