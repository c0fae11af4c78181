//! The global timestamp clock.
//!
//! On the paper's target machine `getTime()` reads a globally synchronized
//! hardware clock. We substitute an atomic counter: `tick()` returns unique,
//! strictly increasing stamps, so "operation A completed before operation B
//! started" implies `stamp(A) < stamp(B)` — the only property the ordering
//! argument (Lemma 1) uses.
//!
//! A [`SkipQueue`](crate::SkipQueue) has exactly one such clock, owned by
//! its garbage collector ([`crate::gc`]), as the paper has one `getTime()`.
//! A call's GC pin ticks it once, and that tick publishes the entry
//! announcement and serves as the insert's FIFO sequence number and the
//! strict `delete_min` start time. An insert's time stamp (taken after linking)
//! and a retirement stamp are further ticks of the same clock, so every
//! stamp the queue compares is totally ordered with every other.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing global clock producing unique stamps.
///
/// ```
/// use skipqueue::TimestampClock;
///
/// let clock = TimestampClock::new();
/// let a = clock.tick();
/// let b = clock.tick();
/// assert!(b > a, "stamps are unique and ordered");
/// ```
/// The type is aligned (and therefore padded) to 128 bytes so that the
/// counter — bumped by every strict operation — never shares a cache line
/// with neighbouring fields of whatever struct embeds it (two lines on
/// CPUs that prefetch line pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct TimestampClock {
    counter: AtomicU64,
}

impl TimestampClock {
    /// Timestamp value of a node whose insertion has not yet completed
    /// (the paper initializes `timeStamp = MAX_TIME`).
    pub const MAX_TIME: u64 = u64::MAX;

    /// Creates a clock starting at 1 (0 is never produced, so it can be used
    /// as "never stamped" in packed representations).
    pub fn new() -> Self {
        Self {
            counter: AtomicU64::new(1),
        }
    }

    /// Returns a fresh, unique stamp. Strictly greater than every stamp
    /// returned by a `tick` that completed before this call began.
    pub fn tick(&self) -> u64 {
        // SeqCst: stamps are the linearization backbone of the strict
        // ordering property; cheap relative to queue operations.
        self.counter.fetch_add(1, Ordering::SeqCst)
    }

    /// Reads the clock without advancing it (diagnostics only).
    pub fn peek(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ticks_are_strictly_increasing() {
        let c = TimestampClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
    }

    #[test]
    fn ticks_are_unique_across_threads() {
        let c = Arc::new(TimestampClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..10_000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate stamps issued");
    }

    #[test]
    fn never_produces_zero_or_max() {
        let c = TimestampClock::new();
        for _ in 0..100 {
            let t = c.tick();
            assert_ne!(t, 0);
            assert_ne!(t, TimestampClock::MAX_TIME);
        }
    }
}
