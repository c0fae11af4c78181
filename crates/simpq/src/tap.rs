//! History taps: recording timed operation histories from the simulated
//! queues for auditing with [`histcheck`].
//!
//! A [`HistoryTap`] is a host-side sink (zero simulated cost — Proteus
//! instrumentation lives outside the machine too) that the queues write
//! one [`histcheck::Op`] into per completed operation. Each queue stamps
//! its operations at the points that make its own correctness contract
//! decidable:
//!
//! * **Strict SkipQueue** — an insert "responds" once its `timeStamp`
//!   write has *landed* (only then is the node guaranteed visible to every
//!   later scan; a scan racing the write still reads `MAX_TIME` and legally
//!   skips the node), and a delete-min is "invoked" at its initial
//!   `getTime()` read (the instant its candidate set `I` is fixed). With
//!   these stamps [`histcheck::History::check_strict`] — the anti-loss
//!   necessary conditions of Definition 1 — must accept every schedule.
//!   (`check_definition1`'s condition 4 is *not* sound here: a strict
//!   delete may legally claim a node whose stamp write landed between the
//!   delete's clock read and its scan.)
//! * **Relaxed SkipQueue** — an insert "responds" when its visibility
//!   write lands, as above; a delete-min is "invoked" at its successful
//!   claim SWAP. A [`histcheck::Violation::ReturnedConcurrentInsert`] hit
//!   then proves the node was claimed *before* its insert finished
//!   stamping — exactly the §5.4 relaxation, and impossible in strict mode
//!   (the eligibility test reads the stamp before claiming).
//! * **Heap / FunnelList** — plain operation boundaries (`p.now()` on
//!   entry and exit).
//!
//! Histories identify items by their *value* word and order them by it, so
//! recorded workloads must use unique values that sort like their keys
//! (simplest: `value == key` with unique keys).

use std::cell::RefCell;
use std::rc::Rc;

use histcheck::{History, Op};
use pqsim::Cycles;

/// Shared history sink, cloned into every processor's queue handle.
///
/// Cheap to clone; all clones append to the same history. Recording order
/// in the underlying vector is host-side completion order, which the
/// audits ignore (they index operations by stamp and value).
#[derive(Clone, Debug, Default)]
pub struct HistoryTap {
    inner: Rc<RefCell<History>>,
}

impl HistoryTap {
    /// An empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed insert of `value` over `[invoked, responded]`.
    pub fn insert(&self, value: u64, invoked: Cycles, responded: Cycles) {
        debug_assert!(invoked <= responded);
        self.inner.borrow_mut().push(Op::Insert {
            value,
            invoked,
            responded,
        });
    }

    /// Records a completed delete-min (`None` = EMPTY) over
    /// `[invoked, responded]`.
    pub fn delete_min(&self, value: Option<u64>, invoked: Cycles, responded: Cycles) {
        debug_assert!(invoked <= responded);
        self.inner.borrow_mut().push(Op::DeleteMin {
            value,
            invoked,
            responded,
        });
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Takes the recorded history out of the tap, leaving it empty.
    pub fn take(&self) -> History {
        std::mem::take(&mut self.inner.borrow_mut())
    }

    /// Clones the recorded history without draining the tap.
    pub fn snapshot(&self) -> History {
        self.inner.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_accumulates_and_takes() {
        let tap = HistoryTap::new();
        assert!(tap.is_empty());
        tap.insert(5, 1, 2);
        let tap2 = tap.clone(); // clones share the sink
        tap2.delete_min(Some(5), 3, 4);
        tap.delete_min(None, 5, 6);
        assert_eq!(tap.len(), 3);
        let h = tap.take();
        assert_eq!(h.len(), 3);
        assert!(tap.is_empty());
        assert!(h.check_definition1().is_empty());
    }
}
