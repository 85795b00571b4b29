//! An O(1) intrusive LRU list over slab indices.
//!
//! The buffer pool stores frames in a slab (`Vec`) and keeps recency as a
//! doubly-linked list threaded through index fields — no per-access
//! allocation, no timestamp scans.

/// Sentinel for "no link".
const NIL: usize = usize::MAX;

/// Per-entry link fields. The owner embeds one of these per slab slot.
#[derive(Debug, Clone, Copy)]
pub struct LruLink {
    prev: usize,
    next: usize,
}

impl Default for LruLink {
    fn default() -> Self {
        Self {
            prev: NIL,
            next: NIL,
        }
    }
}

/// Doubly-linked recency list: front = most recently used, back = least.
///
/// The list stores slab indices; the caller owns the slab and passes a
/// mutable view of the link fields into every operation. Keeping the
/// links outside the list makes the structure borrow-checker friendly
/// without unsafe code.
#[derive(Debug)]
pub struct LruList {
    head: usize,
    tail: usize,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
        }
    }

    /// The least-recently-used index, if any.
    #[must_use]
    pub fn lru(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Pushes `idx` to the front (most recently used).
    ///
    /// `idx` must not currently be linked.
    pub fn push_front(&mut self, idx: usize, links: &mut [LruLink]) {
        debug_assert!(links[idx].prev == NIL && links[idx].next == NIL);
        links[idx].next = self.head;
        links[idx].prev = NIL;
        if self.head != NIL {
            links[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Unlinks `idx` from wherever it is.
    ///
    /// `idx` must currently be linked.
    pub fn unlink(&mut self, idx: usize, links: &mut [LruLink]) {
        let LruLink { prev, next } = links[idx];
        if prev != NIL {
            links[prev].next = next;
        } else {
            debug_assert_eq!(self.head, idx);
            self.head = next;
        }
        if next != NIL {
            links[next].prev = prev;
        } else {
            debug_assert_eq!(self.tail, idx);
            self.tail = prev;
        }
        links[idx] = LruLink::default();
    }

    /// Moves an already-linked `idx` to the front.
    pub fn touch(&mut self, idx: usize, links: &mut [LruLink]) {
        if self.head == idx {
            return;
        }
        self.unlink(idx, links);
        self.push_front(idx, links);
    }

    /// Removes and returns the least-recently-used index.
    pub fn pop_lru(&mut self, links: &mut [LruLink]) -> Option<usize> {
        let idx = self.lru()?;
        self.unlink(idx, links);
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (LruList, Vec<LruLink>) {
        (LruList::new(), vec![LruLink::default(); n])
    }

    #[test]
    fn push_and_pop_order() {
        let (mut l, mut links) = setup(4);
        for i in 0..4 {
            l.push_front(i, &mut links);
        }
        // 0 was pushed first ⇒ least recently used.
        assert_eq!(l.pop_lru(&mut links), Some(0));
        assert_eq!(l.pop_lru(&mut links), Some(1));
        assert_eq!(l.pop_lru(&mut links), Some(2));
        assert_eq!(l.pop_lru(&mut links), Some(3));
        assert_eq!(l.pop_lru(&mut links), None);
    }

    #[test]
    fn touch_promotes() {
        let (mut l, mut links) = setup(3);
        for i in 0..3 {
            l.push_front(i, &mut links);
        }
        l.touch(0, &mut links); // order now (front) 0, 2, 1 (back)
        assert_eq!(l.pop_lru(&mut links), Some(1));
        assert_eq!(l.pop_lru(&mut links), Some(2));
        assert_eq!(l.pop_lru(&mut links), Some(0));
    }

    #[test]
    fn touch_front_is_noop() {
        let (mut l, mut links) = setup(2);
        l.push_front(0, &mut links);
        l.push_front(1, &mut links);
        l.touch(1, &mut links);
        assert_eq!(l.pop_lru(&mut links), Some(0));
    }

    #[test]
    fn unlink_middle() {
        let (mut l, mut links) = setup(3);
        for i in 0..3 {
            l.push_front(i, &mut links);
        }
        l.unlink(1, &mut links);
        assert_eq!(l.pop_lru(&mut links), Some(0));
        assert_eq!(l.pop_lru(&mut links), Some(2));
    }

    #[test]
    fn unlink_single_element() {
        let (mut l, mut links) = setup(1);
        l.push_front(0, &mut links);
        l.unlink(0, &mut links);
        assert_eq!(l.lru(), None);
        // Re-link after unlink works.
        l.push_front(0, &mut links);
        assert_eq!(l.lru(), Some(0));
    }

    #[test]
    fn random_workout_matches_reference() {
        use std::collections::VecDeque;
        let n = 16;
        let (mut l, mut links) = setup(n);
        let mut reference: VecDeque<usize> = VecDeque::new(); // front = MRU
        let mut rng = 0x12345678u64;
        let mut next = move || {
            // xorshift
            let mut x = rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rng = x;
            x
        };
        for _ in 0..10_000 {
            let idx = (next() % n as u64) as usize;
            let linked = reference.contains(&idx);
            match next() % 3 {
                0 if !linked => {
                    l.push_front(idx, &mut links);
                    reference.push_front(idx);
                }
                1 if linked => {
                    l.touch(idx, &mut links);
                    reference.retain(|&x| x != idx);
                    reference.push_front(idx);
                }
                2 if linked => {
                    l.unlink(idx, &mut links);
                    reference.retain(|&x| x != idx);
                }
                _ => {}
            }
            assert_eq!(l.lru(), reference.back().copied());
        }
    }
}
