//! The [`Platform`] trait: everything the SkipQueue algorithm needs from its
//! execution substrate.
//!
//! The algorithm in [`crate::algo`] is written once, as `async` control flow
//! over these hooks. A platform decides what each hook *costs* and what it
//! compiles to:
//!
//! * The **native** platform (`crates/core`) maps nodes to raw pointers,
//!   `load_next`/`store_next` to `Acquire`/`Release` atomics, the level and
//!   node locks to the `parking_lot` shim's `RawMutex` (`shims/parking_lot`:
//!   a test-and-set lock that spins 64 times, then calls `yield_now`),
//!   `delete_read_clock` to the tick the GC pin took from the collector's
//!   `fetch_add` clock, and the GC hooks to quiescence-collector slot
//!   registration. Every hook returns an immediately-ready future, so a
//!   poll-once executor drives a whole operation synchronously.
//! * The **simulator** platform (`crates/simpq`) maps nodes to simulated
//!   machine addresses and every hook to the charged `READ`/`WRITE`/`SWAP`/
//!   semaphore operations of the simulated multiprocessor; each `.await` is
//!   a scheduling point for the deterministic executor.
//!
//! Paper correspondence (Lotan & Shavit, IPDPS 2000):
//!
//! * `key_lt` + `load_next` + `lock_level` are the memory operations of
//!   `getLock` (Figure 9) and the level search (Figures 10/11).
//! * `swap_deleted` is the claiming `SWAP` of Figure 11 line 7.
//! * `delete_read_clock` / `store_stamp` are `getTime()` and the
//!   `timeStamp` write (Figure 10 line 29, Figure 11 line 1).
//! * `enter` / `exit` / `retire_one` are the §3 garbage-collection registry
//!   and stamped garbage lists.
//!
//! The algorithm reports its named steps ([`Event`]: the height draw, the
//! stamp, the claim, the retirement, and the two delete-min returns) through
//! one hook, [`Platform::observe`]. It is host-side on both runtimes: the
//! native queue flattens events into its test trace, and the simulator feeds
//! its history tap and trace without charging a cycle.
//!
//! The differences between the two original hand-written implementations
//! that are *not* pure cost accounting are captured by the associated
//! `const`s (dictionary-style insert, victim re-find, relaxed-mode stamp
//! filtering); each is documented on its item.

/// One named step of the algorithm, reported through [`Platform::observe`]
/// as it happens. `N` is the platform's node handle; the differential tests
/// flatten it to a `u64` key (the head sentinel maps to `0`, the tail to
/// `u64::MAX`), and two [`Platform`]s replaying the same schedule must then
/// produce identical event streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event<N> {
    /// An insert drew this tower height (Figure 10 line 17).
    Height(usize),
    /// An insert published its time stamp on this node (Figure 10 line 29).
    /// The insert is complete: every later delete-min can claim the node.
    Stamp(N),
    /// A delete-min won the claiming SWAP on this node (Figure 11 line 7).
    Claim(N),
    /// A delete physically unlinked this node and is retiring it (Figure 11
    /// line 37).
    Retire(N),
    /// A delete-min returned its claimed node.
    Deleted,
    /// A delete-min found no claimable node and returned EMPTY.
    Empty,
}

impl<N> Event<N> {
    /// Maps the node an event names (if any) through `f`.
    pub fn map<M>(self, f: impl FnOnce(N) -> M) -> Event<M> {
        match self {
            Event::Height(h) => Event::Height(h),
            Event::Stamp(n) => Event::Stamp(f(n)),
            Event::Claim(n) => Event::Claim(f(n)),
            Event::Retire(n) => Event::Retire(f(n)),
            Event::Deleted => Event::Deleted,
            Event::Empty => Event::Empty,
        }
    }
}

/// Result of [`crate::SkipAlgo::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertResult {
    /// A new node was linked.
    Inserted,
    /// An existing node's value was overwritten in place (only on platforms
    /// with [`Platform::DICT_INSERT`]; Figure 10 lines 12–16).
    Updated,
}

/// Execution substrate for the shared SkipQueue algorithm.
///
/// Key/value ownership never crosses this trait: operands are staged into
/// the platform (which is instantiated per call on both runtimes) before an
/// operation starts, and results are read back out of it afterwards. The
/// algorithm itself only manipulates `Node` handles and `SearchKey`s.
///
/// `async` here does not imply an executor requirement: the native platform
/// returns only immediately-ready futures and is driven by a single poll.
#[allow(async_fn_in_trait)] // single-threaded driving; no Send bounds wanted
pub trait Platform {
    /// Handle to a skiplist node: a raw pointer (native) or a simulated
    /// machine address (simulator).
    type Node: Copy + Eq + core::fmt::Debug;
    /// Search operand compared against node keys by `key_lt`/`key_eq`: the
    /// new/victim node handle itself (native — keys live in nodes) or the
    /// raw key word (simulator).
    type SearchKey: Copy;
    /// Token carried from [`Platform::insert_prepare`] to
    /// [`Platform::materialize`] (native: the pre-allocated node).
    type Prep;
    /// Per-operation state, written only by [`Platform::enter`],
    /// [`Platform::delete_read_clock`] and [`Platform::observe`]: nothing
    /// (native) or operation start/invocation times for the history tap
    /// (simulator).
    type Ctx;

    /// Insert is dictionary-style (Figure 10 lines 10–16): lock the level-0
    /// predecessor first, and update in place when the key already exists.
    /// The simulator keeps the paper's exact shape; the native queue is a
    /// multiset (duplicate priorities get fresh nodes) and skips the check.
    const DICT_INSERT: bool;
    /// The eager physical delete re-finds the victim by key along the bottom
    /// level after the predecessor search (Figure 11 lines 24–26). The
    /// native queue already holds the victim pointer and skips the walk.
    const REFIND_VICTIM: bool;
    /// Relaxed-mode (§5.4) delete still reads the stamp and skips nodes
    /// stamped `MAX` (native: the read is free and filters mid-insert nodes
    /// and the head). The simulator charges for every read, so its relaxed
    /// mode skips the read entirely and relies on the claiming SWAP.
    const RELAXED_CLAIM_READS_STAMP: bool;

    /// Starts an operation with its GC entry registration (§3): native
    /// quiescence-slot pin, simulator entry-time registry write (which also
    /// notes the operation's start time for the history tap).
    async fn enter(&self) -> Self::Ctx;
    /// GC exit registration: unpin / registry `MAX_TIME` write.
    async fn exit(&self, ctx: &mut Self::Ctx);

    // ---- insert ----

    /// Stages the insert: returns the search operand and the prep token.
    /// Native draws the tower height, assigns the FIFO sequence number and
    /// allocates the node here; the simulator just surfaces the key (its
    /// height draw and allocation sit after the dictionary check, in
    /// [`Platform::materialize`], preserving RNG draw order).
    fn insert_prepare(&self) -> (Self::SearchKey, Self::Prep);
    /// Produces the linked-to-be node and its height (Figure 10 lines
    /// 17–19). Simulator: draws the height and allocates/initializes the
    /// node with charged cost.
    fn materialize(&self, prep: Self::Prep, skey: Self::SearchKey) -> (Self::Node, usize);
    /// Dictionary hit: overwrite `node`'s value in place (only reachable
    /// when [`Platform::DICT_INSERT`]).
    async fn update_in_place(&self, node: Self::Node);
    /// Publishes the time stamp (Figure 10 line 29): native stores a global
    /// clock tick; the simulator reads the simulated clock (strict) or
    /// writes `0` (relaxed).
    async fn store_stamp(&self, node: Self::Node);

    // ---- traversal ----

    /// Loads `node`'s level-`lvl` forward pointer (`Acquire` / charged READ).
    async fn load_next(&self, node: Self::Node, lvl: usize) -> Self::Node;
    /// Stores `node`'s level-`lvl` forward pointer (`Release` / charged
    /// WRITE). Caller holds the level lock.
    async fn store_next(&self, node: Self::Node, lvl: usize, to: Self::Node);
    /// Like [`Platform::store_next`] but for a node not yet published
    /// (native relaxes the ordering; the simulator charges the same WRITE).
    async fn store_next_init(&self, node: Self::Node, lvl: usize, to: Self::Node);
    /// `node.key < skey` — the search/`getLock` advance test. The simulator
    /// charges one READ of the node's key per call.
    async fn key_lt(&self, node: Self::Node, skey: Self::SearchKey) -> bool;
    /// `node.key == skey` — the dictionary check and victim re-find test.
    async fn key_eq(&self, node: Self::Node, skey: Self::SearchKey) -> bool;

    // ---- locks ----

    /// Acquires `node`'s level-`lvl` pointer lock.
    async fn lock_level(&self, node: Self::Node, lvl: usize);
    /// Releases `node`'s level-`lvl` pointer lock.
    async fn unlock_level(&self, node: Self::Node, lvl: usize);
    /// Acquires the whole-node lock (Figure 10 line 20 / Figure 11 line 27).
    async fn lock_node(&self, node: Self::Node);
    /// Releases the whole-node lock.
    async fn unlock_node(&self, node: Self::Node);

    // ---- delete-min ----

    /// Strict mode's `getTime()` (Figure 11 line 1). Relaxed mode skips it
    /// and considers every stamp below `u64::MAX`.
    async fn delete_read_clock(&self, ctx: &mut Self::Ctx) -> u64;
    /// Loads `node`'s time stamp (`u64::MAX` = insert incomplete).
    async fn load_stamp(&self, node: Self::Node) -> u64;
    /// Loads `node`'s deleted mark (the front-key probe's filter).
    async fn load_deleted(&self, node: Self::Node) -> bool;
    /// The claiming `SWAP` (Figure 11 line 7): marks `node` deleted and
    /// returns the previous mark — `false` means this caller won the node.
    async fn swap_deleted(&self, node: Self::Node) -> bool;
    /// Saves the claimed node's key/value into the platform's result slot
    /// (Figure 11 lines 11–13). The winner of the SWAP is the unique caller.
    async fn take_payload(&self, node: Self::Node);
    /// Search operand that re-finds `victim`'s predecessors (native: the
    /// victim handle; simulator: the key word saved by `take_payload`).
    fn victim_search_key(&self, victim: Self::Node) -> Self::SearchKey;
    /// `victim`'s tower height (free on native; a charged READ of the level
    /// word on the simulator).
    async fn victim_height(&self, victim: Self::Node) -> usize;
    /// Debug-build check that `pred` points at `victim` at `lvl` (native
    /// asserts; the simulator cannot cheaply, and skips it).
    fn debug_check_pred(&self, pred: Self::Node, victim: Self::Node, lvl: usize);
    /// Retires one eagerly-unlinked node to the collector / garbage list.
    async fn retire_one(&self, victim: Self::Node, height: usize);

    // ---- observation ----

    /// Reports one step of the algorithm as it happens. Must charge
    /// nothing and change no shared state: native traces it when a test
    /// asked for a trace; the simulator records it in its history tap and
    /// trace, and a relaxed claim sets the delete's linearization time in
    /// `ctx`.
    fn observe(&self, ctx: &mut Self::Ctx, event: Event<Self::Node>);
}

/// Extension for platforms whose keys can be surfaced by value: enables the
/// non-claiming [`crate::SkipAlgo::peek_min_key`] probe. Kept separate so
/// the native platform only provides it under its `K: Copy` bound.
#[allow(async_fn_in_trait)]
pub trait PeekPlatform: Platform {
    /// Key type returned by the probe.
    type PeekKey;
    /// Surfaces `node`'s key by value (`None` for a sentinel).
    async fn peek_key(&self, node: Self::Node) -> Option<Self::PeekKey>;
}
