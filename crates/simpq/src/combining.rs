//! The combining funnel (Shavit & Zemach) on the simulated machine, shared
//! by [`crate::funnellist::SimFunnelList`] (every operation) and
//! [`crate::funnel_skip::FunnelSkipQueue`] (delete-mins only).
//!
//! Processors descend through layers of collision slots, `SWAP`ing their
//! request pointers in; whoever collides with a waiting request *captures*
//! it and carries it down; whoever emerges from the bottom uncaptured is
//! the combiner and serves the whole batch.
//!
//! Protocol state machine per request (same discipline as the native
//! `funnel` crate — a request is capturable only while its owner spins in a
//! collision window, so a capturer always observes a stable chain):
//!
//! ```text
//! LOCKED ─owner─▶ ACTIVE ─owner CAS─▶ LOCKED   (retract, descend)
//!                  ACTIVE ─peer  CAS─▶ CAPTURED ─combiner─▶ DONE
//! ```
//!
//! Every request starts with a [`HEADER_WORDS`]-word header: `+0 status,
//! +1 chain, +2 sibling, +3 resKey, +4 resVal, +5 resOk`; a structure puts
//! its own fields after it. Requests are never recycled during a run (the
//! simulated arena is virtual), which sidesteps ABA on stale slot pointers.

use pqsim::{Addr, Proc, Sim, Word, NULL};

const ST_LOCKED: Word = 0;
const ST_ACTIVE: Word = 1;
const ST_CAPTURED: Word = 2;
const ST_DONE: Word = 3;

const R_STATUS: u32 = 0;
const R_CHAIN: u32 = 1;
const R_SIBLING: u32 = 2;
const R_RES_KEY: u32 = 3;
const R_RES_VAL: u32 = 4;
const R_RES_OK: u32 = 5;
/// Words of the header every funnel request starts with.
pub(crate) const HEADER_WORDS: u32 = 6;

const RES_ITEM: Word = 1;
const RES_NONE: Word = 2;

/// Collision layers; each is half as wide as the one above it.
const DEPTH: u32 = 2;
/// Collision-window spin length, in backoff rounds.
const SPIN_ROUNDS: u32 = 6;

/// How a request left the funnel.
pub(crate) enum Descent {
    /// A combiner captured the request and served it: its result.
    Served(Option<(u64, u64)>),
    /// The request came out of the bottom uncaptured: its owner combines
    /// the batch rooted at this chain (see [`gather`]).
    Combine(Addr),
}

/// The funnel's collision layers: (base address, width).
#[derive(Clone)]
pub(crate) struct Funnel {
    layers: Vec<(Addr, u32)>,
}

impl Funnel {
    /// Allocates the collision layers (out-of-band). `width` is the first
    /// layer's slot count; slots are spread over the machine's nodes.
    pub(crate) fn create(sim: &Sim, width: u32) -> Self {
        assert!(width >= 1);
        let m = sim.machine();
        let mut m = m.borrow_mut();
        let nproc = m.cfg.nproc.max(1);
        let layers = (0..DEPTH)
            .map(|d| {
                let w = (width >> d).max(1);
                let base = m.mem.alloc(w, 0);
                for i in 0..w {
                    m.mem.set_home(base + i, 1, i % nproc);
                }
                (base, w)
            })
            .collect();
        Self { layers }
    }

    /// Descends the layers with the request `req` (from [`request`]):
    /// either a combiner captures and serves it, or it reaches the bottom
    /// carrying the requests it captured on the way.
    pub(crate) async fn descend(&self, p: &Proc, req: Addr) -> Descent {
        let mut chain: Addr = NULL;
        for &(base, width) in &self.layers {
            // Publish the chain, open the collision window.
            p.write(req + R_CHAIN, Word::from(chain)).await;
            p.write(req + R_STATUS, ST_ACTIVE).await;
            let slot = base + p.gen_range_u64(u64::from(width)) as u32;
            let prev = p.swap(slot, Word::from(req)).await as Addr;

            // Collision window: spin with growing local backoff. The real
            // funnel adapts its size to the concurrency level; we get the
            // same effect cheaply by keeping the window short when the slot
            // was empty (nobody to collide with).
            let rounds = if prev == NULL { 1 } else { SPIN_ROUNDS };
            let mut backoff = 16u64;
            for _ in 0..rounds {
                if p.read(req + R_STATUS).await != ST_ACTIVE {
                    break;
                }
                p.work(backoff);
                backoff = (backoff * 2).min(256);
            }
            let retracted = p.cas(req + R_STATUS, ST_ACTIVE, ST_LOCKED).await == ST_ACTIVE;

            // Best-effort slot cleanup.
            p.cas(slot, Word::from(req), Word::from(NULL)).await;

            if prev != NULL
                && prev != req
                && retracted
                && p.cas(prev + R_STATUS, ST_ACTIVE, ST_CAPTURED).await == ST_ACTIVE
            {
                p.write(prev + R_SIBLING, Word::from(chain)).await;
                chain = prev;
            }

            if !retracted {
                // Captured: wait for the combiner to deliver our result.
                let mut wait = 64u64;
                while p.read(req + R_STATUS).await != ST_DONE {
                    p.work(wait);
                    wait = (wait * 2).min(4096);
                }
                return Descent::Served(read_result(p, req).await);
            }
        }
        Descent::Combine(chain)
    }
}

/// Allocates a private LOCKED request of `words` words: the header plus
/// the caller's own fields, which it fills in before [`Funnel::descend`].
pub(crate) fn request(p: &Proc, words: u32) -> Addr {
    debug_assert!(words >= HEADER_WORDS);
    let req = p.alloc(words);
    p.with_machine(|m| m.mem.poke(req + R_STATUS, ST_LOCKED));
    req
}

/// The combiner's batch: its own `req` first, then every request captured
/// into `chain`, depth first.
pub(crate) async fn gather(p: &Proc, req: Addr, chain: Addr) -> Vec<Addr> {
    let mut members = vec![req];
    let mut stack = vec![chain];
    while let Some(mut c) = stack.pop() {
        while c != NULL {
            members.push(c);
            stack.push(p.read(c + R_CHAIN).await as Addr);
            c = p.read(c + R_SIBLING).await as Addr;
        }
    }
    members
}

/// Writes batch member `m`'s result and, unless `m` is the combiner's own
/// `req`, releases its waiting owner.
pub(crate) async fn deliver(p: &Proc, req: Addr, m: Addr, result: Option<(u64, u64)>) {
    match result {
        Some((k, v)) => {
            p.write(m + R_RES_KEY, k).await;
            p.write(m + R_RES_VAL, v).await;
            p.write(m + R_RES_OK, RES_ITEM).await;
        }
        None => p.write(m + R_RES_OK, RES_NONE).await,
    }
    if m != req {
        p.write(m + R_STATUS, ST_DONE).await;
    }
}

/// Reads the result [`deliver`] wrote into `req`.
pub(crate) async fn read_result(p: &Proc, req: Addr) -> Option<(u64, u64)> {
    if p.read(req + R_RES_OK).await == RES_ITEM {
        let k = p.read(req + R_RES_KEY).await;
        let v = p.read(req + R_RES_VAL).await;
        Some((k, v))
    } else {
        None
    }
}
