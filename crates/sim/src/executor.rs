//! The deterministic discrete-event executor.
//!
//! The executor owns one future per virtual processor and repeatedly polls
//! the runnable processor with the smallest `(local clock, pid)`. Because a
//! processor's clock only moves forward, the global sequence of shared
//! operations it produces is a valid real-time interleaving, and identical
//! inputs (programs + seed + cost model) always produce identical runs.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::machine::{Machine, SimConfig};
use crate::proc::Proc;
use crate::{Addr, Cycles, Pid, Word};

/// Outcome of a completed simulation.
///
/// `PartialEq`/`Eq` support byte-exact determinism checks: the same
/// programs, seed, scheduler spec, and fault plan must reproduce the
/// identical report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Maximum local clock over all processors (machine makespan, cycles).
    pub final_time: Cycles,
    /// Total globally visible operations performed.
    pub shared_ops: u64,
    /// Final local clock of each processor.
    pub proc_times: Vec<Cycles>,
    /// Cycles each processor spent blocked in lock queues.
    pub lock_wait: Vec<Cycles>,
}

type Program = Pin<Box<dyn Future<Output = ()>>>;

/// A simulation: machine state plus one program per spawned processor.
pub struct Sim {
    machine: Rc<RefCell<Machine>>,
    tasks: Vec<Option<Program>>,
}

// The executor schedules by clock, not by wakers, so a no-op waker suffices.
fn noop_raw_waker() -> RawWaker {
    fn clone(_: *const ()) -> RawWaker {
        noop_raw_waker()
    }
    fn noop(_: *const ()) {}
    RawWaker::new(
        std::ptr::null(),
        &RawWakerVTable::new(clone, noop, noop, noop),
    )
}

impl Sim {
    /// Creates a simulation with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let n = cfg.nproc as usize;
        Self {
            machine: Rc::new(RefCell::new(Machine::new(cfg))),
            tasks: (0..n).map(|_| None).collect(),
        }
    }

    /// Shared handle to the machine, for out-of-band setup and inspection.
    pub fn machine(&self) -> Rc<RefCell<Machine>> {
        Rc::clone(&self.machine)
    }

    /// Allocates shared words homed at node 0 without charging simulated
    /// time (pre-run setup).
    pub fn alloc_shared(&self, len: u32) -> Addr {
        self.machine.borrow_mut().mem.alloc(len, 0)
    }

    /// Out-of-band read of a shared word (zero simulated cost).
    pub fn read_word(&self, addr: Addr) -> Word {
        self.machine.borrow().mem.peek(addr)
    }

    /// Spawns a program on the next free processor, returning its pid.
    ///
    /// Panics if all `nproc` processors already have programs.
    pub fn spawn<F, Fut>(&mut self, f: F) -> Pid
    where
        F: FnOnce(Proc) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let pid = self
            .tasks
            .iter()
            .position(|t| t.is_none())
            .expect("all processors already have programs") as Pid;
        self.spawn_on(pid, f)
    }

    /// Spawns a program on a specific processor.
    pub fn spawn_on<F, Fut>(&mut self, pid: Pid, f: F) -> Pid
    where
        F: FnOnce(Proc) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(
            self.tasks[pid as usize].is_none(),
            "processor {pid} already has a program"
        );
        let proc = Proc::new(pid, Rc::clone(&self.machine));
        self.tasks[pid as usize] = Some(Box::pin(f(proc)));
        self.machine.borrow_mut().activate(pid);
        pid
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// Panics on deadlock (a processor still blocked on a lock when no
    /// runnable processor remains).
    pub fn run(&mut self) -> SimReport {
        self.run_inner(Cycles::MAX)
    }

    /// Runs until every runnable processor's clock is at least `horizon`
    /// (or the simulation finishes, whichever comes first). The machine can
    /// be inspected between slices; call again (or [`Sim::run`]) to resume.
    ///
    /// Unlike [`Sim::run`], a still-blocked processor at the horizon is not
    /// a deadlock — its holder may simply not have been scheduled past the
    /// horizon yet.
    pub fn run_until(&mut self, horizon: Cycles) -> SimReport {
        self.run_inner(horizon)
    }

    fn run_inner(&mut self, horizon: Cycles) -> SimReport {
        let waker = unsafe { Waker::from_raw(noop_raw_waker()) };
        let mut cx = Context::from_waker(&waker);
        loop {
            let next = self.machine.borrow_mut().pop_ready();
            let Some((t, pid)) = next else { break };
            if t >= horizon {
                // Past the slice: put it back and stop.
                self.machine.borrow_mut().requeue(pid);
                break;
            }
            let task = self.tasks[pid as usize]
                .as_mut()
                .expect("ready pid without a program");
            match task.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    self.machine.borrow_mut().finish(pid);
                    self.tasks[pid as usize] = None;
                }
                Poll::Pending => {
                    self.machine.borrow_mut().requeue(pid);
                }
            }
        }
        let m = self.machine.borrow();
        if horizon == Cycles::MAX {
            if let Some(pid) = m.any_blocked() {
                panic!("simulation deadlock: processor {pid} still blocked on a lock");
            }
        }
        SimReport {
            final_time: m.final_time(),
            shared_ops: m.shared_ops(),
            proc_times: m.clocks(),
            lock_wait: m.lock_wait().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn cfg(n: u32) -> SimConfig {
        SimConfig::new(n).with_cost(CostModel::unit())
    }

    #[test]
    fn single_processor_runs_to_completion() {
        let mut sim = Sim::new(cfg(1));
        let a = sim.alloc_shared(1);
        sim.spawn(move |p| async move {
            for i in 0..10 {
                p.work(3);
                p.write(a, i).await;
            }
        });
        let report = sim.run();
        assert_eq!(sim.read_word(a), 9);
        // 10 iterations of 3 work + 1-cycle write access.
        assert_eq!(report.final_time, 10 * 3 + 10);
        assert_eq!(report.shared_ops, 10);
    }

    #[test]
    fn fetch_add_from_many_processors_is_atomic() {
        let mut sim = Sim::new(cfg(8));
        let a = sim.alloc_shared(1);
        for _ in 0..8 {
            sim.spawn(move |p| async move {
                for _ in 0..100 {
                    p.fetch_add(a, 1).await;
                }
            });
        }
        sim.run();
        assert_eq!(sim.read_word(a), 800);
    }

    #[test]
    fn scheduler_interleaves_by_local_time() {
        // Processor 0 does lots of work between accesses; processor 1 does
        // little. Processor 1's accesses should all land first.
        let mut sim = Sim::new(cfg(2));
        let log = sim.alloc_shared(64);
        let idx = sim.alloc_shared(1);
        for (pid, work) in [(0u64, 1000u64), (1, 1)] {
            sim.spawn(move |p| async move {
                for _ in 0..4 {
                    p.work(work);
                    let i = p.fetch_add(idx, 1).await;
                    p.write(log + i as u32, pid + 1).await;
                }
            });
        }
        sim.run();
        let order: Vec<u64> = (0..8).map(|i| sim.read_word(log + i)).collect();
        assert_eq!(
            &order[..4],
            &[2, 2, 2, 2],
            "fast processor goes first: {order:?}"
        );
    }

    #[test]
    fn lock_provides_mutual_exclusion() {
        let mut sim = Sim::new(SimConfig::new(16));
        let counter = sim.alloc_shared(1);
        let lock = sim.machine().borrow_mut().new_lock(0);
        for _ in 0..16 {
            sim.spawn(move |p| async move {
                for _ in 0..50 {
                    p.acquire(lock).await;
                    // Non-atomic read-modify-write under the lock.
                    let v = p.read(counter).await;
                    p.work(7);
                    p.write(counter, v + 1).await;
                    p.release(lock).await;
                }
            });
        }
        sim.run();
        assert_eq!(sim.read_word(counter), 800);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> (Cycles, u64, Word) {
            let mut sim = Sim::new(SimConfig::new(8).with_seed(seed));
            let acc = sim.alloc_shared(1);
            for _ in 0..8 {
                sim.spawn(move |p| async move {
                    for _ in 0..64 {
                        p.work(p.gen_range_u64(100));
                        let v = p.gen_range_u64(1000);
                        p.fetch_add(acc, v).await;
                    }
                });
            }
            let r = sim.run();
            (r.final_time, r.shared_ops, sim.read_word(acc))
        }
        assert_eq!(run_once(1), run_once(1));
        assert_ne!(run_once(1).2, run_once(2).2);
    }

    #[test]
    fn contention_increases_makespan() {
        fn run(n: u32, same_word: bool) -> Cycles {
            let mut sim = Sim::new(SimConfig::new(n));
            let words = sim.alloc_shared(n);
            for i in 0..n {
                let target = if same_word { words } else { words + i };
                sim.spawn(move |p| async move {
                    for _ in 0..100 {
                        p.fetch_add(target, 1).await;
                    }
                });
            }
            sim.run().final_time
        }
        let contended = run(32, true);
        let spread = run(32, false);
        assert!(
            contended > 2 * spread,
            "hot word should queue: contended={contended} spread={spread}"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut sim = Sim::new(cfg(2));
        let m = sim.machine();
        let (l1, l2) = {
            let mut m = m.borrow_mut();
            (m.new_lock(0), m.new_lock(0))
        };
        sim.spawn(move |p| async move {
            p.acquire(l1).await;
            p.work(10);
            p.acquire(l2).await;
        });
        sim.spawn(move |p| async move {
            p.acquire(l2).await;
            p.work(10);
            p.acquire(l1).await;
        });
        sim.run();
    }

    #[test]
    fn clock_reads_order_across_processors() {
        let mut sim = Sim::new(cfg(2));
        let out = sim.alloc_shared(2);
        sim.spawn(move |p| async move {
            let t = p.read_clock().await;
            p.write(out, t).await;
        });
        sim.spawn(move |p| async move {
            p.work(1_000);
            let t = p.read_clock().await;
            p.write(out + 1, t).await;
        });
        sim.run();
        assert!(sim.read_word(out) < sim.read_word(out + 1));
    }

    #[test]
    fn spawn_on_specific_pid() {
        let mut sim = Sim::new(cfg(4));
        let a = sim.alloc_shared(4);
        sim.spawn_on(2, move |p| async move {
            p.write(a + p.pid(), 1).await;
        });
        sim.run();
        assert_eq!(sim.read_word(a + 2), 1);
        assert_eq!(sim.read_word(a), 0);
    }

    #[test]
    fn run_until_slices_the_execution() {
        let mut sim = Sim::new(cfg(2));
        let a = sim.alloc_shared(1);
        for _ in 0..2 {
            sim.spawn(move |p| async move {
                for _ in 0..100 {
                    p.work(10);
                    p.fetch_add(a, 1).await;
                }
            });
        }
        let mid = sim.run_until(500);
        assert!(mid.final_time <= 1_200, "slice stops near the horizon");
        let partial = sim.read_word(a);
        assert!(
            partial > 0 && partial < 200,
            "mid-run state visible: {partial}"
        );
        let fin = sim.run();
        assert!(fin.final_time >= mid.final_time);
        assert_eq!(sim.read_word(a), 200, "resume completes the programs");
    }

    #[test]
    fn run_until_zero_does_nothing() {
        let mut sim = Sim::new(cfg(1));
        let a = sim.alloc_shared(1);
        sim.spawn(move |p| async move {
            p.write(a, 9).await;
        });
        sim.run_until(0);
        assert_eq!(sim.read_word(a), 0);
        sim.run();
        assert_eq!(sim.read_word(a), 9);
    }

    #[test]
    fn report_proc_times_match_clocks() {
        let mut sim = Sim::new(cfg(2));
        sim.spawn(|p| async move {
            p.work(123);
            p.yield_now().await;
        });
        sim.spawn(|p| async move {
            p.work(456);
            p.yield_now().await;
        });
        let r = sim.run();
        assert_eq!(r.proc_times, vec![123, 456]);
        assert_eq!(r.final_time, 456);
    }
}
