//! The shared machine state: memory, locks, clocks, scheduler queue.
//!
//! [`Machine`] implements the *semantics* of every globally visible
//! operation; the executor in [`crate::executor`] decides *when* each
//! processor gets to issue one. All operations here are synchronous and are
//! invoked from within a processor's poll, under a single `RefCell` borrow.

use std::collections::BTreeSet;

use crate::cost::CostModel;
use crate::lock::{LockId, LockTable};
use crate::mem::MemState;
use crate::rng::Pcg32;
use crate::sched::{FaultSpec, FaultState, SchedPoint, SchedSpec, Scheduler};
use crate::{Addr, Cycles, Pid, Word};

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of virtual processors.
    pub nproc: u32,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Global seed; per-processor RNG streams derive from it.
    pub seed: u64,
    /// Initial size of the shared-memory arena, in words (grows on demand).
    pub initial_words: usize,
    /// Schedule perturbation (default: deterministic clock order).
    pub sched: SchedSpec,
    /// Fault-injection plan (default: inert).
    pub faults: FaultSpec,
}

impl SimConfig {
    /// Configuration with default costs and seed for `nproc` processors.
    pub fn new(nproc: u32) -> Self {
        Self {
            nproc,
            cost: CostModel::default(),
            seed: 0x5EED_CAFE,
            initial_words: 1 << 16,
            sched: SchedSpec::ClockOrder,
            faults: FaultSpec::default(),
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the schedule perturbation (builder style).
    pub fn with_sched(mut self, sched: SchedSpec) -> Self {
        self.sched = sched;
        self
    }

    /// Sets the fault-injection plan (builder style).
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }
}

/// Scheduling state of a virtual processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PState {
    /// Can be scheduled; appears in the ready queue unless currently polled.
    Runnable,
    /// Waiting in some lock's FIFO queue.
    Blocked,
    /// Program finished.
    Done,
}

/// Kinds of shared-memory access.
#[derive(Clone, Copy, Debug)]
pub enum AccessKind {
    /// Atomic read; returns the value.
    Read,
    /// Atomic write; returns the previous value.
    Write(Word),
    /// Register-to-memory swap (the paper's `SWAP`); returns the previous
    /// value.
    Swap(Word),
    /// Atomic fetch-and-add; returns the previous value.
    FetchAdd(Word),
    /// Compare-and-swap: stores `new` iff current == `expected`; returns the
    /// previous value either way.
    Cas {
        /// Expected current value.
        expected: Word,
        /// Replacement value.
        new: Word,
    },
}

/// The whole simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// Configuration (costs, seed, processor count).
    pub cfg: SimConfig,
    /// The shared-memory arena.
    pub mem: MemState,
    /// Lock table.
    pub locks: LockTable,
    now: Vec<Cycles>,
    state: Vec<PState>,
    ready: BTreeSet<(Cycles, Pid)>,
    rngs: Vec<Pcg32>,
    shared_ops: u64,
    /// Cycles each processor has spent blocked in lock queues.
    lock_wait: Vec<Cycles>,
    /// Time at which each currently-blocked processor blocked.
    blocked_since: Vec<Cycles>,
    /// Live scheduler built from `cfg.sched`.
    sched: Box<dyn Scheduler>,
    /// Live fault-injection state built from `cfg.faults`.
    faults: FaultState,
    /// Boundary counter feeding the scheduler (counts scheduling points,
    /// unlike `shared_ops` which counts applied operations).
    sched_points: u64,
    /// Total cycles of delay injected so far (diagnostics).
    injected_delay: Cycles,
}

impl Machine {
    /// Creates a machine for the given configuration. All processors start
    /// `Done` until a program is spawned onto them.
    pub fn new(cfg: SimConfig) -> Self {
        let n = cfg.nproc as usize;
        let rngs = (0..cfg.nproc)
            .map(|p| Pcg32::for_pid(cfg.seed, p))
            .collect();
        let sched = cfg.sched.build(cfg.seed, cfg.nproc);
        let faults = FaultState::new(cfg.faults.clone(), cfg.seed);
        Self {
            mem: MemState::new(cfg.initial_words),
            locks: LockTable::new(),
            now: vec![0; n],
            state: vec![PState::Done; n],
            ready: BTreeSet::new(),
            rngs,
            sched,
            faults,
            cfg,
            shared_ops: 0,
            lock_wait: vec![0; n],
            blocked_since: vec![0; n],
            sched_points: 0,
            injected_delay: 0,
        }
    }

    /// Marks `pid` runnable at time 0 (called by the executor at spawn).
    pub(crate) fn activate(&mut self, pid: Pid) {
        assert_eq!(
            self.state[pid as usize],
            PState::Done,
            "pid {pid} already active"
        );
        self.state[pid as usize] = PState::Runnable;
        self.ready.insert((self.now[pid as usize], pid));
    }

    /// Removes and returns the runnable processor with minimum
    /// `(local time, pid)`.
    pub(crate) fn pop_ready(&mut self) -> Option<(Cycles, Pid)> {
        let first = *self.ready.iter().next()?;
        self.ready.remove(&first);
        Some(first)
    }

    /// Re-queues a processor after a poll, unless it blocked or finished.
    pub(crate) fn requeue(&mut self, pid: Pid) {
        if self.state[pid as usize] == PState::Runnable {
            self.ready.insert((self.now[pid as usize], pid));
        }
    }

    /// Marks a processor's program as finished.
    pub(crate) fn finish(&mut self, pid: Pid) {
        self.state[pid as usize] = PState::Done;
    }

    /// Scheduling state of `pid`.
    pub fn pstate(&self, pid: Pid) -> PState {
        self.state[pid as usize]
    }

    /// Local clock of `pid`, in cycles.
    pub fn now(&self, pid: Pid) -> Cycles {
        self.now[pid as usize]
    }

    /// Total number of globally visible operations performed so far.
    pub fn shared_ops(&self) -> u64 {
        self.shared_ops
    }

    /// Total cycles of scheduler/fault delay injected so far.
    pub fn injected_delay(&self) -> Cycles {
        self.injected_delay
    }

    /// Scheduling hook fired once per shared-operation boundary, *before*
    /// the operation's scheduling yield: any injected delay moves `pid`'s
    /// local clock forward, so the executor re-sorts and every processor
    /// whose clock is now earlier runs first. The operation then applies
    /// at the delayed clock — the perturbed run is still a coherent timed
    /// execution (clock reads stay monotone, memory visibility stays in
    /// clock order).
    pub(crate) fn pre_shared_op(&mut self, pid: Pid, point: SchedPoint) {
        let idx = self.sched_points;
        self.sched_points += 1;
        let d = self.sched.delay(pid, point, idx) + self.faults.delay(pid, point, idx);
        if d > 0 {
            self.now[pid as usize] += d;
            self.injected_delay += d;
        }
    }

    /// Advances `pid`'s local clock by `cycles` of local work.
    pub fn work(&mut self, pid: Pid, cycles: Cycles) {
        self.now[pid as usize] += cycles;
    }

    /// Performs one shared-memory access for `pid`, applying the hot-spot
    /// cost model, and returns the value the access observes (the previous
    /// value for mutating kinds).
    pub fn access(&mut self, pid: Pid, addr: Addr, kind: AccessKind) -> Word {
        self.shared_ops += 1;
        // Instructions surrounding the access (Proteus charges every local
        // instruction; we lump them into a per-access constant).
        self.now[pid as usize] += self.cfg.cost.instr_overhead;
        let rmw = !matches!(kind, AccessKind::Read | AccessKind::Write(_));
        let (completion, module_done) = self.cfg.cost.access(
            self.now[pid as usize],
            self.mem.busy_until(addr),
            pid,
            self.mem.home(addr),
            rmw,
        );
        self.mem.set_busy_until(addr, module_done);
        self.now[pid as usize] = completion;
        let old = self.mem.peek(addr);
        match kind {
            AccessKind::Read => {}
            AccessKind::Write(v) | AccessKind::Swap(v) => {
                self.mem.poke(addr, v);
            }
            AccessKind::FetchAdd(d) => {
                self.mem.poke(addr, old.wrapping_add(d));
            }
            AccessKind::Cas { expected, new } => {
                if old == expected {
                    self.mem.poke(addr, new);
                }
            }
        }
        old
    }

    /// Reads the globally synchronized hardware clock.
    ///
    /// Returns the cycle at which the read serializes. Reads by different
    /// processors are totally ordered by the returned value up to ties, and a
    /// read that starts after another completes always returns a strictly
    /// larger value — the property Lemma 1 of the paper relies on.
    pub fn read_clock(&mut self, pid: Pid) -> Cycles {
        self.shared_ops += 1;
        self.now[pid as usize] += self.cfg.cost.instr_overhead + self.cfg.cost.clock_read;
        self.now[pid as usize]
    }

    /// Allocates a zeroed block of `len` shared words homed at `pid`'s node,
    /// charging the allocation cost to `pid`.
    pub fn alloc(&mut self, pid: Pid, len: u32) -> Addr {
        self.now[pid as usize] += self.cfg.cost.alloc_cost;
        self.mem.alloc(len, pid)
    }

    /// Frees a block previously allocated with [`Machine::alloc`].
    pub fn free(&mut self, pid: Pid, addr: Addr, len: u32) {
        // Freeing is local book-keeping: a small fixed cost.
        self.now[pid as usize] += self.cfg.cost.alloc_cost / 2;
        self.mem.free(addr, len);
    }

    /// Creates a lock (allocating its backing word at `pid`'s node).
    pub fn new_lock(&mut self, pid: Pid) -> LockId {
        let word = self.alloc(pid, 1);
        self.locks.create(word)
    }

    /// Destroys a free lock and releases its backing word.
    pub fn free_lock(&mut self, pid: Pid, lock: LockId) {
        let word = self.locks.destroy(lock);
        self.free(pid, word, 1);
    }

    /// Attempts to acquire `lock` for `pid`.
    ///
    /// Charges one RMW access on the lock's backing word. If the lock is
    /// held, `pid` joins the FIFO queue and becomes [`PState::Blocked`]; the
    /// caller must then yield so the executor stops scheduling it.
    /// Returns `true` when the lock was acquired immediately.
    pub fn acquire(&mut self, pid: Pid, lock: LockId) -> bool {
        let word = self.locks.get(lock).word;
        self.access(pid, word, AccessKind::Swap(1));
        let holder = self.locks.get(lock).holder;
        match holder {
            None => {
                self.locks.get_mut(lock).holder = Some(pid);
                true
            }
            Some(h) => {
                assert_ne!(h, pid, "pid {pid} re-acquiring a non-reentrant lock");
                self.locks.get_mut(lock).waiters.push_back(pid);
                self.state[pid as usize] = PState::Blocked;
                self.blocked_since[pid as usize] = self.now[pid as usize];
                false
            }
        }
    }

    /// Releases `lock`, which must be held by `pid`. If there are queued
    /// waiters the lock is handed to the head of the queue, which becomes
    /// runnable after the hand-off latency.
    pub fn release(&mut self, pid: Pid, lock: LockId) {
        let word = self.locks.get(lock).word;
        self.access(pid, word, AccessKind::Swap(0));
        let release_time = self.now[pid as usize];
        let l = self.locks.get_mut(lock);
        assert_eq!(
            l.holder,
            Some(pid),
            "pid {pid} releasing a lock it does not hold"
        );
        match l.waiters.pop_front() {
            None => l.holder = None,
            Some(next) => {
                l.holder = Some(next);
                let wake = release_time + self.cfg.cost.lock_handoff;
                let ni = next as usize;
                self.now[ni] = self.now[ni].max(wake);
                self.lock_wait[ni] += self.now[ni] - self.blocked_since[ni];
                debug_assert_eq!(self.state[ni], PState::Blocked);
                self.state[ni] = PState::Runnable;
                self.ready.insert((self.now[ni], next));
            }
        }
    }

    /// Per-processor RNG.
    pub fn rng(&mut self, pid: Pid) -> &mut Pcg32 {
        &mut self.rngs[pid as usize]
    }

    /// True if some processor is blocked on a lock (deadlock detection after
    /// the ready queue drains).
    pub fn any_blocked(&self) -> Option<Pid> {
        self.state
            .iter()
            .position(|s| *s == PState::Blocked)
            .map(|i| i as Pid)
    }

    /// The maximum local clock over all processors.
    pub fn final_time(&self) -> Cycles {
        self.now.iter().copied().max().unwrap_or(0)
    }

    /// Snapshot of all local clocks.
    pub fn clocks(&self) -> Vec<Cycles> {
        self.now.clone()
    }

    /// Total cycles spent blocked in lock queues, per processor.
    pub fn lock_wait(&self) -> &[Cycles] {
        &self.lock_wait
    }

    /// Total lock-wait cycles across all processors.
    pub fn total_lock_wait(&self) -> Cycles {
        self.lock_wait.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: u32) -> Machine {
        Machine::new(SimConfig::new(n).with_cost(CostModel::unit()))
    }

    #[test]
    fn work_advances_local_clock_only() {
        let mut m = machine(2);
        m.work(0, 100);
        assert_eq!(m.now(0), 100);
        assert_eq!(m.now(1), 0);
    }

    #[test]
    fn access_applies_semantics() {
        let mut m = machine(1);
        let a = m.alloc(0, 1);
        assert_eq!(m.access(0, a, AccessKind::Read), 0);
        assert_eq!(m.access(0, a, AccessKind::Write(7)), 0);
        assert_eq!(m.access(0, a, AccessKind::Swap(9)), 7);
        assert_eq!(m.access(0, a, AccessKind::FetchAdd(3)), 9);
        assert_eq!(m.mem.peek(a), 12);
        assert_eq!(
            m.access(
                0,
                a,
                AccessKind::Cas {
                    expected: 12,
                    new: 20
                }
            ),
            12
        );
        assert_eq!(m.mem.peek(a), 20);
        assert_eq!(
            m.access(
                0,
                a,
                AccessKind::Cas {
                    expected: 12,
                    new: 30
                }
            ),
            20
        );
        assert_eq!(m.mem.peek(a), 20, "failed CAS must not store");
    }

    #[test]
    fn contention_serializes_hot_word() {
        let mut m = Machine::new(SimConfig::new(3));
        let a = m.alloc(2, 1); // homed away from both accessors
        m.access(0, a, AccessKind::Read);
        let t0 = m.now(0);
        m.access(1, a, AccessKind::Read);
        let t1 = m.now(1);
        // Processor 1 issued at local time 0 but must queue behind 0's access.
        assert!(t1 > t0 - m.cfg.cost.mem_remote, "t0={t0} t1={t1}");
        assert!(t1 > m.cfg.cost.mem_remote + m.cfg.cost.mem_service);
    }

    #[test]
    fn clock_reads_are_monotone_per_processor() {
        let mut m = machine(1);
        let t1 = m.read_clock(0);
        m.work(0, 5);
        let t2 = m.read_clock(0);
        assert!(t2 > t1);
    }

    #[test]
    fn lock_uncontended_acquire_release() {
        let mut m = machine(2);
        let l = m.new_lock(0);
        assert!(m.acquire(0, l));
        m.release(0, l);
        assert!(m.acquire(1, l));
        m.release(1, l);
        m.free_lock(1, l);
    }

    #[test]
    fn lock_blocks_second_acquirer_and_hands_off_fifo() {
        let mut m = machine(3);
        let l = m.new_lock(0);
        assert!(m.acquire(0, l));
        assert!(!m.acquire(1, l));
        assert!(!m.acquire(2, l));
        assert_eq!(m.pstate(1), PState::Blocked);
        assert_eq!(m.pstate(2), PState::Blocked);
        m.release(0, l);
        // FIFO: pid 1 first.
        assert_eq!(m.pstate(1), PState::Runnable);
        assert_eq!(m.pstate(2), PState::Blocked);
        assert_eq!(m.locks.get(l).holder, Some(1));
        m.release(1, l);
        assert_eq!(m.locks.get(l).holder, Some(2));
        assert_eq!(m.pstate(2), PState::Runnable);
        m.release(2, l);
        assert_eq!(m.locks.get(l).holder, None);
    }

    #[test]
    #[should_panic(expected = "releasing a lock it does not hold")]
    fn release_by_non_holder_panics() {
        let mut m = machine(2);
        let l = m.new_lock(0);
        assert!(m.acquire(0, l));
        m.release(1, l);
    }

    #[test]
    fn woken_waiter_clock_includes_handoff() {
        let mut m = Machine::new(SimConfig::new(2));
        let l = m.new_lock(0);
        assert!(m.acquire(0, l));
        assert!(!m.acquire(1, l));
        m.work(0, 1000);
        m.release(0, l);
        assert!(m.now(1) >= m.now(0), "waiter wakes after release");
    }

    #[test]
    fn lock_wait_is_accounted() {
        let mut m = Machine::new(SimConfig::new(2));
        let l = m.new_lock(0);
        assert!(m.acquire(0, l));
        assert!(!m.acquire(1, l));
        m.work(0, 10_000);
        m.release(0, l);
        assert!(
            m.lock_wait()[1] >= 9_000,
            "waiter should account most of the hold: {}",
            m.lock_wait()[1]
        );
        assert_eq!(m.lock_wait()[0], 0, "uncontended holder never waits");
        assert_eq!(m.total_lock_wait(), m.lock_wait()[1]);
        m.release(1, l);
    }

    #[test]
    fn shared_op_counting() {
        let mut m = machine(1);
        let a = m.alloc(0, 1);
        let before = m.shared_ops();
        m.access(0, a, AccessKind::Read);
        m.read_clock(0);
        assert_eq!(m.shared_ops(), before + 2);
    }
}
