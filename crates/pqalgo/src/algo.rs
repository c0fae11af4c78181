//! The SkipQueue algorithm (Figures 9–11, §3, §5.4), written once over
//! [`Platform`] hooks.
//!
//! Control flow, lock protocol, claim filtering and the eager physical
//! delete live here; *what the individual steps cost and compile to* lives
//! in the platform implementations (`crates/core` native, `crates/simpq`
//! simulated). The hook sequence each path issues is exactly the charged-op
//! sequence of the original hand-written simulator transcription, so the
//! simulator's figures are bit-identical across the unification.

use crate::platform::{Event, InsertResult, PeekPlatform, Platform};

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
    /// The paper's `getLock` (Figure 9): starting from `node1` (a node with
    /// key < `skey` reached under the caller's GC registration), lock the
    /// level-`lvl` pointer of the node with the largest key smaller than
    /// `skey`, re-validating (and hand-over-hand advancing) after each
    /// acquisition. On return the caller holds the result's level lock.
    async fn get_lock<P: Platform<Node = N>>(
        &self,
        p: &P,
        mut node1: N,
        skey: P::SearchKey,
        lvl: usize,
    ) -> N {
        let mut node2 = p.load_next(node1, lvl).await;
        while p.key_lt(node2, skey).await {
            node1 = node2;
            node2 = p.load_next(node1, lvl).await;
        }
        p.lock_level(node1, lvl).await;
        let mut node2 = p.load_next(node1, lvl).await;
        while p.key_lt(node2, skey).await {
            // Something changed before we got the lock: move it forward.
            p.unlock_level(node1, lvl).await;
            node1 = node2;
            p.lock_level(node1, lvl).await;
            node2 = p.load_next(node1, lvl).await;
        }
        node1
    }

    /// Finds, for every level, the node with the largest key smaller than
    /// `skey` (Figure 10 lines 1–9 / Figure 11 lines 15–22).
    async fn search<P: Platform<Node = N>>(&self, p: &P, skey: P::SearchKey) -> [N; MAX_HEIGHT] {
        let mut preds = [self.head; MAX_HEIGHT];
        let mut node1 = self.head;
        for lvl in (0..self.max_height).rev() {
            let mut node2 = p.load_next(node1, lvl).await;
            while p.key_lt(node2, skey).await {
                node1 = node2;
                node2 = p.load_next(node1, lvl).await;
            }
            preds[lvl] = node1;
        }
        preds
    }

    /// Inserts the operand staged in the platform (Figure 10).
    pub async fn insert<P: Platform<Node = N>>(&self, p: &P) -> InsertResult {
        let mut ctx = p.enter().await;
        let (skey, prep) = p.insert_prepare();
        let preds = self.search(p, skey).await;

        // Lines 10–16 (dictionary platforms only): lock the level-0
        // predecessor; if the key exists, update its value in place.
        let mut pred0 = preds[0];
        if P::DICT_INSERT {
            pred0 = self.get_lock(p, preds[0], skey, 0).await;
            let node2 = p.load_next(pred0, 0).await;
            if p.key_eq(node2, skey).await {
                p.update_in_place(node2).await;
                p.unlock_level(pred0, 0).await;
                p.exit(&mut ctx).await;
                return InsertResult::Updated;
            }
        }

        // Lines 17–20: make the node, lock it whole so no deleter can start
        // unlinking it while its upper levels are still being connected.
        let (node, height) = p.materialize(prep, skey);
        p.observe(&mut ctx, Event::Height(height));
        p.lock_node(node).await;

        // Lines 21–27: connect bottom-to-top, each level under the
        // predecessor's re-validated lock (on dictionary platforms level 0
        // is already locked from the check above).
        for (lvl, &level_pred) in preds.iter().enumerate().take(height) {
            let pred = if P::DICT_INSERT && lvl == 0 {
                pred0
            } else {
                self.get_lock(p, level_pred, skey, lvl).await
            };
            let nxt = p.load_next(pred, lvl).await;
            p.store_next_init(node, lvl, nxt).await;
            p.store_next(pred, lvl, node).await;
            p.unlock_level(pred, lvl).await;
        }
        p.unlock_node(node).await;

        // Line 29: the time stamp is set only after the node is completely
        // inserted.
        p.store_stamp(node).await;
        p.observe(&mut ctx, Event::Stamp(node));
        p.exit(&mut ctx).await;
        InsertResult::Inserted
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
        // unmarked node stamped before we began.
        let mut node1 = p.load_next(self.head, 0).await;
        let victim = loop {
            if node1 == self.tail {
                p.exit(&mut ctx).await;
                p.observe(&mut ctx, Event::Empty);
                return false;
            }
            let eligible = if self.strict || P::RELAXED_CLAIM_READS_STAMP {
                p.load_stamp(node1).await < time
            } else {
                true
            };
            if eligible && !p.swap_deleted(node1).await {
                p.observe(&mut ctx, Event::Claim(node1));
                break node1;
            }
            node1 = p.load_next(node1, 0).await;
        };

        // Lines 11–13: save the value and key. The winner of the SWAP is the
        // unique owner of the payload.
        p.take_payload(victim).await;

        // Pugh's physical delete. Lines 15–22: re-find the predecessors.
        let skey = p.victim_search_key(victim);
        let preds = self.search(p, skey).await;
        // Lines 24–26 (platforms searching by key): make sure we hold a
        // pointer to the node with the key.
        let mut node2 = preds[0];
        if P::REFIND_VICTIM {
            while !p.key_eq(node2, skey).await {
                node2 = p.load_next(node2, 0).await;
            }
        } else {
            node2 = victim;
        }
        // Line 27: lock the whole node (waits out an in-flight insert).
        p.lock_node(node2).await;
        // Lines 28–35: unlink top-down, two locks per level, pointing the
        // removed node's forward pointer *backwards* at its predecessor so
        // concurrent traversals escape gracefully (§2).
        let height = p.victim_height(node2).await;
        for lvl in (0..height).rev() {
            let pred = self.get_lock(p, preds[lvl], skey, lvl).await;
            p.debug_check_pred(pred, node2, lvl);
            p.lock_level(node2, lvl).await;
            let nxt = p.load_next(node2, lvl).await;
            p.store_next(pred, lvl, nxt).await;
            p.store_next(node2, lvl, pred).await;
            p.unlock_level(node2, lvl).await;
            p.unlock_level(pred, lvl).await;
        }
        // Lines 36–37: release and retire to the stamped garbage list (§3).
        p.unlock_node(node2).await;
        p.observe(&mut ctx, Event::Retire(node2));
        p.retire_one(node2, height).await;
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
            // unlinked node's forward pointers name its predecessors); step
            // forward again rather than report the sentinel.
            if node1 != self.head && !p.load_deleted(node1).await {
                break p.peek_key(node1).await;
            }
            node1 = p.load_next(node1, 0).await;
        };
        p.exit(&mut ctx).await;
        key
    }
}
