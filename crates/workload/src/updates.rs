//! Update streams: the paper's maintenance workload.
//!
//! "At every timestamp, we randomly change directions or speed of some
//! objects to generate updates. Every object is required to be updated at
//! least once during the maximum update interval `T_M`." (§VI-A)
//!
//! [`UpdateStream`] reproduces that discipline: a voluntary update rate
//! of `1/T_M` per object per tick plus a forced heartbeat for any object
//! whose age reaches `T_M`. Updates preserve position continuity (the new
//! trajectory starts where the old one currently is) and steer objects
//! back into the space domain when they approach the border.

use std::collections::HashMap;

use cij_geom::{in_range, MovingRect, Rect, Time};
use cij_tpr::ObjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::MovingObject;
use crate::params::Params;

/// Which joined set an object belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetTag {
    /// The left set of the join.
    A = 1,
    /// The right set of the join.
    B = 2,
}

/// One object update, carrying everything an engine needs to apply it:
/// the old trajectory (for the index delete) and the time of the previous
/// update (for MTB-tree bucket location).
///
/// `set`, `old_mbr` and `last_update` are the *delete keys* of the entry
/// the update replaces. A bare engine driven directly reads them from the
/// update, as the paper's own driver does. The routing layers do not:
/// `StreamService` and the shard router keep one registration per live
/// object and overwrite the keys from it, so behind them only `id` and
/// `new_mbr` come from the producer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectUpdate {
    /// The updated object.
    pub id: ObjectId,
    /// Its set (a delete key).
    pub set: SetTag,
    /// Trajectory registered before this update (a delete key).
    pub old_mbr: MovingRect,
    /// When that trajectory was registered — the tick the previous update
    /// was applied (a delete key; == `old_mbr.t_ref` for this crate's
    /// generator).
    pub last_update: Time,
    /// New trajectory (reference time = now).
    pub new_mbr: MovingRect,
}

impl ObjectUpdate {
    /// Whether both trajectories are [sound from](MovingRect::is_sound_from)
    /// `now` and `last_update` is [in range](in_range) — what the indexes
    /// assume of an update and assert on, so an update decoded from a
    /// journal is held against it first.
    #[must_use]
    pub fn is_sound_at(&self, now: Time) -> bool {
        in_range(self.last_update)
            && self.old_mbr.is_sound_from(now)
            && self.new_mbr.is_sound_from(now)
    }
}

struct ObjectState {
    tag: SetTag,
    mbr: MovingRect,
    last_update: Time,
}

/// Deterministic per-tick update generator over two object sets.
///
/// ```
/// use cij_workload::{generate_pair, Params, UpdateStream};
///
/// let params = Params { dataset_size: 100, ..Params::default() };
/// let (a, b) = generate_pair(&params, 0.0);
/// let mut stream = UpdateStream::new(&params, &a, &b, 0.0);
/// let mut total = 0usize;
/// for tick in 1..=60 {
///     total += stream.tick(f64::from(tick)).len();
/// }
/// // Every object updated at least once within T_M = 60 ticks.
/// assert!(total >= 200, "heartbeat discipline: {total} updates");
/// ```
pub struct UpdateStream {
    params: Params,
    rng: StdRng,
    states: HashMap<ObjectId, ObjectState>,
    /// Stable iteration order (HashMap order is nondeterministic).
    ids: Vec<ObjectId>,
}

impl UpdateStream {
    /// Creates a stream over freshly generated sets, all considered
    /// updated at `now`.
    #[must_use]
    pub fn new(params: &Params, a: &[MovingObject], b: &[MovingObject], now: Time) -> Self {
        let mut states = HashMap::with_capacity(a.len() + b.len());
        let mut ids = Vec::with_capacity(a.len() + b.len());
        for (objs, tag) in [(a, SetTag::A), (b, SetTag::B)] {
            for o in objs {
                states.insert(
                    o.id,
                    ObjectState {
                        tag,
                        mbr: o.mbr,
                        last_update: now,
                    },
                );
                ids.push(o.id);
            }
        }
        Self {
            params: *params,
            rng: StdRng::seed_from_u64(params.seed ^ 0x5EED_CAFE),
            states,
            ids,
        }
    }

    /// Produces the updates for timestamp `now`: voluntary updates at
    /// rate `1/T_M` plus forced heartbeats for objects of age ≥ `T_M`.
    pub fn tick(&mut self, now: Time) -> Vec<ObjectUpdate> {
        let t_m = self.params.maximum_update_interval;
        let p_voluntary = 1.0 / t_m;
        let mut out = Vec::new();
        let ids = std::mem::take(&mut self.ids);
        for &id in &ids {
            let state = self.states.get(&id).expect("ids track states");
            let due = now - state.last_update >= t_m;
            let voluntary = self.rng.gen_bool(p_voluntary.clamp(0.0, 1.0));
            if !(due || voluntary) {
                continue;
            }
            let tag = state.tag;
            let old_mbr = state.mbr;
            let last_update = state.last_update;
            let new_mbr = self.steer(id, &old_mbr, tag, now);
            let state = self.states.get_mut(&id).expect("ids track states");
            state.mbr = new_mbr;
            state.last_update = now;
            out.push(ObjectUpdate {
                id,
                set: tag,
                old_mbr,
                last_update,
                new_mbr,
            });
        }
        self.ids = ids;
        out
    }

    /// New trajectory: continue from the current position, pick a fresh
    /// velocity (honoring the object's id-stable speed class under the
    /// velocity-skew distribution), and point it inward when the object
    /// strays near the border.
    fn steer(&mut self, id: ObjectId, old: &MovingRect, tag: SetTag, now: Time) -> MovingRect {
        let s = self.params.space;
        let side = self.params.object_side();
        let here = old.at(now);
        // Clamp the position back into the domain (objects may drift out
        // between updates; the paper's generator keeps them in the space).
        let x = here.lo[0].clamp(0.0, s - side);
        let y = here.lo[1].clamp(0.0, s - side);

        let mut v = match self.params.distribution {
            crate::dataset::Distribution::Highway => {
                let speed = self.rng.gen_range(
                    0.3 * self.params.max_speed..=self.params.max_speed.max(f64::MIN_POSITIVE),
                );
                let dir = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                [dir * speed, 0.0]
            }
            crate::dataset::Distribution::Battlefield => {
                // Battlefield objects keep advancing; once they cross the
                // space they behave like uniform movers.
                let forward = self.rng.gen_range(
                    0.3 * self.params.max_speed..=self.params.max_speed.max(f64::MIN_POSITIVE),
                );
                let lateral = self
                    .rng
                    .gen_range(-0.3 * self.params.max_speed..=0.3 * self.params.max_speed);
                match tag {
                    SetTag::A => [forward, lateral],
                    SetTag::B => [-forward, lateral],
                }
            }
            crate::dataset::Distribution::VelocitySkew => {
                crate::dataset::skewed_velocity(&mut self.rng, self.params.max_speed, id)
            }
            _ => {
                let angle = self.rng.gen_range(0.0..std::f64::consts::TAU);
                let speed = self.rng.gen_range(0.0..=self.params.max_speed);
                [speed * angle.cos(), speed * angle.sin()]
            }
        };
        // Reflect inward near borders so objects stay in the domain.
        let margin = 0.05 * s;
        if x < margin {
            v[0] = v[0].abs();
        } else if x > s - side - margin {
            v[0] = -v[0].abs();
        }
        if y < margin {
            v[1] = v[1].abs();
        } else if y > s - side - margin {
            v[1] = -v[1].abs();
        }
        MovingRect::rigid(Rect::new([x, y], [x + side, y + side]), v, now)
    }

    /// The currently registered trajectory of `id`.
    #[must_use]
    pub fn current(&self, id: ObjectId) -> Option<&MovingRect> {
        self.states.get(&id).map(|s| &s.mbr)
    }

    /// Snapshot of one set's `(id, trajectory)` list, in id order.
    #[must_use]
    pub fn snapshot(&self, tag: SetTag) -> Vec<(ObjectId, MovingRect)> {
        let mut v: Vec<_> = self
            .states
            .iter()
            .filter(|(_, s)| s.tag == tag)
            .map(|(id, s)| (*id, s.mbr))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Total number of tracked objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the stream tracks no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::generate_pair;

    fn stream(n: usize) -> UpdateStream {
        let params = Params {
            dataset_size: n,
            ..Params::default()
        };
        let (a, b) = generate_pair(&params, 0.0);
        UpdateStream::new(&params, &a, &b, 0.0)
    }

    #[test]
    fn every_object_updates_within_t_m() {
        let params = Params {
            dataset_size: 300,
            ..Params::default()
        };
        let (a, b) = generate_pair(&params, 0.0);
        let mut s = UpdateStream::new(&params, &a, &b, 0.0);
        let mut last: HashMap<ObjectId, Time> = a.iter().chain(&b).map(|o| (o.id, 0.0)).collect();
        for tick in 1..=180 {
            let now = tick as f64;
            for u in s.tick(now) {
                // Interval between consecutive updates never exceeds T_M.
                assert!(
                    now - last[&u.id] <= params.maximum_update_interval + 1e-9,
                    "object {} waited {} ticks",
                    u.id,
                    now - last[&u.id]
                );
                assert_eq!(u.last_update, last[&u.id]);
                last.insert(u.id, now);
            }
        }
        // After T_M ticks past t=120, everyone must have updated since 120.
        for (&id, &t) in &last {
            assert!(
                180.0 - t < params.maximum_update_interval + 1e-9,
                "object {id} stale since {t}"
            );
        }
    }

    #[test]
    fn updates_preserve_position_continuity() {
        let mut s = stream(200);
        for tick in 1..=60 {
            let now = tick as f64;
            for u in s.tick(now) {
                let before = u.old_mbr.at(now);
                let after = u.new_mbr.at(now);
                // Position may only change by the border clamp.
                let dx = (before.lo[0] - after.lo[0]).abs();
                let dy = (before.lo[1] - after.lo[1]).abs();
                let slack = 200.0; // clamp distance bound: speed × T_M
                assert!(dx <= slack && dy <= slack);
                assert_eq!(u.new_mbr.t_ref, now);
                // Extents unchanged.
                assert!((before.extent(0) - after.extent(0)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut s1 = stream(100);
        let mut s2 = stream(100);
        for tick in 1..=30 {
            assert_eq!(s1.tick(tick as f64), s2.tick(tick as f64));
        }
    }

    #[test]
    fn snapshot_tracks_applied_updates() {
        let mut s = stream(100);
        for tick in 1..=70 {
            s.tick(tick as f64);
        }
        for (id, mbr) in s.snapshot(SetTag::A) {
            assert_eq!(s.current(id), Some(&mbr));
            // Everyone has re-registered at least once in 70 > T_M ticks.
            assert!(mbr.t_ref > 0.0, "{id} never updated");
        }
    }

    #[test]
    fn objects_stay_roughly_in_domain() {
        let params = Params {
            dataset_size: 200,
            ..Params::default()
        };
        let (a, b) = generate_pair(&params, 0.0);
        let mut s = UpdateStream::new(&params, &a, &b, 0.0);
        for tick in 1..=240 {
            s.tick(tick as f64);
        }
        let drift_bound = params.max_speed * params.maximum_update_interval;
        for (_, mbr) in s
            .snapshot(SetTag::A)
            .iter()
            .chain(s.snapshot(SetTag::B).iter())
        {
            let r = mbr.at(240.0);
            assert!(r.lo[0] > -drift_bound && r.hi[0] < params.space + drift_bound);
            assert!(r.lo[1] > -drift_bound && r.hi[1] < params.space + drift_bound);
        }
    }
}
