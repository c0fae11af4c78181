//! The SkipQueue algorithm (Figures 9–11, §3, §5.4), written once over
//! [`Platform`] hooks.
//!
//! Control flow, lock protocol, claim filtering and the eager physical
//! delete live here; *what the individual steps cost and compile to* lives
//! in the platform implementations (`crates/core` native, `crates/simpq`
//! simulated). The hook sequence each path issues is the simulator's
//! charged-op sequence, so a change here moves the simulated figures, and
//! `results/` is regenerated with it.

use crate::platform::{Event, PeekPlatform, Platform};

/// Tower-height ceiling shared by both runtimes (the native queue caps
/// construction at 32, the simulator at 30).
pub const MAX_HEIGHT: usize = 32;

/// Immutable shape of one queue instance, in platform-neutral terms. Both
/// runtimes build one of these next to their own state and pass it to every
/// algorithm call.
#[derive(Clone, Copy, Debug)]
pub struct SkipAlgo<N> {
    /// The `-∞` sentinel.
    pub head: N,
    /// The `+∞` sentinel.
    pub tail: N,
    /// Number of levels in the sentinels' towers.
    pub max_height: usize,
    /// Strict (time-stamped, Definition 1) vs relaxed (§5.4) semantics.
    pub strict: bool,
}

impl<N: Copy + Eq + core::fmt::Debug> SkipAlgo<N> {
    /// The paper's `getLock` (Figure 9): starting from `node1` (a node
    /// ordered before `own`, reached under the caller's GC registration),
    /// lock the level-`lvl` pointer of the last node ordered before `own`,
    /// re-validating (and hand-over-hand advancing) after each acquisition.
    /// On return the caller holds the result's level lock.
    async fn get_lock<P: Platform<Node = N>>(&self, p: &P, mut node1: N, own: N, lvl: usize) -> N {
        let mut node2 = p.load_next(node1, lvl).await;
        while p.key_lt(node2, own).await {
            node1 = node2;
            node2 = p.load_next(node1, lvl).await;
        }
        p.lock_level(node1, lvl).await;
        let mut node2 = p.load_next(node1, lvl).await;
        while p.key_lt(node2, own).await {
            // Something changed before we got the lock: move it forward.
            p.unlock_level(node1, lvl).await;
            node1 = node2;
            p.lock_level(node1, lvl).await;
            node2 = p.load_next(node1, lvl).await;
        }
        node1
    }

    /// Finds, for every level below `top`, the last node ordered before
    /// `own` (Figure 10 lines 1–9 / Figure 11 lines 15–22), starting from
    /// the head's level `top − 1`. Entries at `top` and above stay `head`.
    async fn search<P: Platform<Node = N>>(&self, p: &P, own: N, top: usize) -> [N; MAX_HEIGHT] {
        let mut preds = [self.head; MAX_HEIGHT];
        let mut node1 = self.head;
        for lvl in (0..top).rev() {
            let mut node2 = p.load_next(node1, lvl).await;
            while p.key_lt(node2, own).await {
                node1 = node2;
                node2 = p.load_next(node1, lvl).await;
            }
            preds[lvl] = node1;
        }
        preds
    }

    /// Inserts the operand staged in the platform (Figure 10). The queue is
    /// a multiset: every insert links a new node, so the dictionary update
    /// of lines 10–16 has no counterpart.
    pub async fn insert<P: Platform<Node = N>>(&self, p: &P) {
        let mut ctx = p.enter().await;
        // Lines 17–19: make the node first; the search orders against it.
        let (node, height) = p.new_node();
        p.observe(&mut ctx, Event::Height(height));
        let preds = self.search(p, node, self.max_height).await;

        // Line 20: lock the node whole so no deleter can start unlinking it
        // while its upper levels are still being connected. Only a relaxed
        // deleter can claim the node that early: a strict one waits for the
        // stamp, which is stored after the unlock.
        p.lock_node(node).await;

        // Lines 21–27: connect bottom-to-top, each level under the
        // predecessor's re-validated lock.
        for (lvl, &level_pred) in preds.iter().enumerate().take(height) {
            let pred = self.get_lock(p, level_pred, node, lvl).await;
            let nxt = p.load_next(pred, lvl).await;
            p.store_next(node, lvl, nxt).await;
            p.store_next(pred, lvl, node).await;
            p.unlock_level(pred, lvl).await;
        }
        p.unlock_node(node).await;

        // Line 29: the time stamp is set only after the node is completely
        // inserted.
        p.store_stamp(node).await;
        p.observe(&mut ctx, Event::Stamp(node));
        p.exit(&mut ctx).await;
    }

    /// Removes the minimum entry (Figure 11) into the platform's result
    /// slot; returns `false` for EMPTY.
    pub async fn delete_min<P: Platform<Node = N>>(&self, p: &P) -> bool {
        let mut ctx = p.enter().await;
        // Line 1: note the time the search starts; only consider nodes
        // stamped earlier. Relaxed mode (§5.4) considers everything.
        let time = if self.strict {
            p.delete_read_clock(&mut ctx).await
        } else {
            u64::MAX
        };

        // Lines 2–10: walk the bottom level, SWAP-claiming the first
        // unmarked node stamped before we began. Relaxed mode has no stamps
        // to read, so it may claim a node whose insert is still linking; the
        // node lock below waits that insert out. The sentinels are born
        // marked, so a scan routed back over the head cannot claim it.
        let mut node1 = p.load_next(self.head, 0).await;
        let victim = loop {
            if node1 == self.tail {
                p.exit(&mut ctx).await;
                p.observe(&mut ctx, Event::Empty);
                return false;
            }
            let eligible = !self.strict || p.load_stamp(node1).await < time;
            if eligible && !p.swap_deleted(node1).await {
                p.observe(&mut ctx, Event::Claim(node1));
                break node1;
            }
            node1 = p.load_next(node1, 0).await;
        };

        // Lines 11–13: save the value and key. The winner of the SWAP is the
        // unique owner of the payload.
        p.take_payload(victim).await;

        // Pugh's physical delete. Lines 15–22: find the predecessors, but
        // only on the victim's own levels: the search starts at the head's
        // level `height − 1`, not at its top, so the empty upper levels of a
        // short front victim cost nothing. The search orders against the
        // victim itself, so it stops right before it and lines 24–26's
        // re-find by key has nothing to do.
        let height = p.victim_height(victim).await;
        let preds = self.search(p, victim, height).await;
        // Line 27: lock the whole node, in relaxed mode only, where the
        // claim read no stamp and the victim's insert may still be linking.
        // A strict victim passed `load_stamp < time`, and its insert stores
        // the stamp only after `unlock_node`, so the claim already ordered
        // this delete after that unlock and after every level it linked.
        if !self.strict {
            p.lock_node(victim).await;
        }
        // Lines 28–35: unlink top-down, two locks per level, pointing the
        // removed node's forward pointer *backwards* at its predecessor so
        // concurrent traversals escape gracefully (§2).
        for lvl in (0..height).rev() {
            let pred = self.get_lock(p, preds[lvl], victim, lvl).await;
            p.debug_check_pred(pred, victim, lvl);
            p.lock_level(victim, lvl).await;
            let nxt = p.load_next(victim, lvl).await;
            p.store_next(pred, lvl, nxt).await;
            p.store_next(victim, lvl, pred).await;
            p.unlock_level(victim, lvl).await;
            p.unlock_level(pred, lvl).await;
        }
        // Lines 36–37: release and retire to the stamped garbage list (§3).
        if !self.strict {
            p.unlock_node(victim).await;
        }
        p.observe(&mut ctx, Event::Retire(victim));
        p.retire_one(victim, height).await;
        p.exit(&mut ctx).await;
        p.observe(&mut ctx, Event::Deleted);
        true
    }

    /// Non-claiming front-key probe: walks the bottom level from the head
    /// and returns the first unmarked key, or
    /// `None` when no unmarked node is found. Reads only — no SWAP, no
    /// locks — so a sampling front-end can compare shard fronts cheaply.
    /// The snapshot is relaxed: strict-mode stamps are deliberately ignored
    /// (a probe is not a claim, so Definition 1 does not apply).
    pub async fn peek_min_key<P: PeekPlatform<Node = N>>(&self, p: &P) -> Option<P::PeekKey> {
        let mut ctx = p.enter().await;
        let mut node1 = p.load_next(self.head, 0).await;
        let key = loop {
            if node1 == self.tail {
                break None;
            }
            // The backward-pointer trick can land the walk on the head (an
            // unlinked node's forward pointers name its predecessors); the
            // head is born marked, so the walk steps forward again.
            if !p.load_deleted(node1).await {
                break p.peek_key(node1).await;
            }
            node1 = p.load_next(node1, 0).await;
        };
        p.exit(&mut ctx).await;
        key
    }
}
