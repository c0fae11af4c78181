//! The simulated shared-memory arena.
//!
//! Memory is an array of 64-bit words. Each word has a *home node* (the
//! ccNUMA memory module that serves it) and a `busy_until` timestamp used by
//! the hot-spot queueing model in [`crate::cost`]. Blocks are allocated with
//! a bump pointer plus per-size free lists; a block allocated by processor
//! `p` is homed at `p`'s node, mirroring local allocation on Alewife.

use std::collections::BTreeMap;

use crate::{Addr, Cycles, Pid, Word, NULL};

/// The shared-memory arena: words, homes, and module-busy bookkeeping.
#[derive(Debug)]
pub struct MemState {
    words: Vec<Word>,
    home: Vec<Pid>,
    busy: Vec<Cycles>,
    /// First never-allocated address (bump pointer).
    brk: usize,
    /// Free lists keyed by block size in words.
    free: BTreeMap<u32, Vec<Addr>>,
    /// Words currently handed out (for leak diagnostics).
    live_words: usize,
}

impl MemState {
    /// Creates an arena with an initial capacity; it grows on demand.
    pub fn new(initial_words: usize) -> Self {
        let cap = initial_words.max(64);
        Self {
            // Word 0 is the reserved NULL slot.
            words: vec![0; cap],
            home: vec![0; cap],
            busy: vec![0; cap],
            brk: 1,
            free: BTreeMap::new(),
            live_words: 0,
        }
    }

    fn ensure(&mut self, end: usize) {
        if end > self.words.len() {
            let new_len = end.next_power_of_two();
            self.words.resize(new_len, 0);
            self.home.resize(new_len, 0);
            self.busy.resize(new_len, 0);
        }
    }

    /// Allocates a zeroed block of `len` words homed at `home`.
    ///
    /// Reuses a freed block of the same size when one exists (its home is
    /// re-assigned to the new owner's node: the simulator does not model
    /// page migration costs, only steady-state placement).
    pub fn alloc(&mut self, len: u32, home: Pid) -> Addr {
        assert!(len > 0, "cannot allocate empty block");
        self.live_words += len as usize;
        if let Some(list) = self.free.get_mut(&len) {
            if let Some(addr) = list.pop() {
                let a = addr as usize;
                for w in &mut self.words[a..a + len as usize] {
                    *w = 0;
                }
                for h in &mut self.home[a..a + len as usize] {
                    *h = home;
                }
                return addr;
            }
        }
        let addr = self.brk;
        self.ensure(addr + len as usize);
        self.brk += len as usize;
        for h in &mut self.home[addr..addr + len as usize] {
            *h = home;
        }
        Addr::try_from(addr).expect("simulated address space exhausted")
    }

    /// Returns a block of `len` words starting at `addr` to the free pool.
    pub fn free(&mut self, addr: Addr, len: u32) {
        debug_assert_ne!(addr, NULL, "freeing NULL");
        debug_assert!((addr as usize) + (len as usize) <= self.brk);
        self.live_words -= len as usize;
        self.free.entry(len).or_default().push(addr);
    }

    /// Number of words currently allocated and not yet freed.
    pub fn live_words(&self) -> usize {
        self.live_words
    }

    /// Direct (zero-cost, out-of-band) read, for setup and assertions.
    pub fn peek(&self, addr: Addr) -> Word {
        self.words[addr as usize]
    }

    /// Direct (zero-cost, out-of-band) write, for setup.
    pub fn poke(&mut self, addr: Addr, value: Word) {
        self.words[addr as usize] = value;
    }

    /// Home node of a word.
    pub fn home(&self, addr: Addr) -> Pid {
        self.home[addr as usize]
    }

    /// Overrides the home node of a block (used for deliberately shared
    /// structures like sentinels).
    pub fn set_home(&mut self, addr: Addr, len: u32, home: Pid) {
        for h in &mut self.home[addr as usize..(addr + len) as usize] {
            *h = home;
        }
    }

    /// Module-busy horizon for a word.
    pub fn busy_until(&self, addr: Addr) -> Cycles {
        self.busy[addr as usize]
    }

    /// Updates the module-busy horizon after an access.
    pub fn set_busy_until(&mut self, addr: Addr, t: Cycles) {
        self.busy[addr as usize] = t;
    }

    /// Applies a timed mutation, returning the previous value.
    pub fn replace(&mut self, addr: Addr, value: Word) -> Word {
        std::mem::replace(&mut self.words[addr as usize], value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_never_allocated() {
        let mut m = MemState::new(16);
        for _ in 0..100 {
            assert_ne!(m.alloc(3, 0), NULL);
        }
    }

    #[test]
    fn blocks_do_not_overlap() {
        let mut m = MemState::new(8);
        let a = m.alloc(4, 0);
        let b = m.alloc(4, 1);
        assert!(b >= a + 4 || a >= b + 4);
    }

    #[test]
    fn arena_grows_on_demand() {
        let mut m = MemState::new(4);
        let mut last = 0;
        for _ in 0..64 {
            last = m.alloc(16, 0);
        }
        assert!(last > 4);
        m.poke(last, 99);
        assert_eq!(m.peek(last), 99);
    }

    #[test]
    fn free_list_reuses_same_size() {
        let mut m = MemState::new(64);
        let a = m.alloc(5, 0);
        m.poke(a + 1, 42);
        m.free(a, 5);
        let b = m.alloc(5, 2);
        assert_eq!(b, a, "same-size allocation should reuse the freed block");
        assert_eq!(m.peek(b + 1), 0, "reused block must be zeroed");
        assert_eq!(m.home(b), 2, "reused block re-homed to new owner");
    }

    #[test]
    fn different_sizes_do_not_reuse() {
        let mut m = MemState::new(64);
        let a = m.alloc(5, 0);
        m.free(a, 5);
        let b = m.alloc(6, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn live_word_accounting() {
        let mut m = MemState::new(64);
        assert_eq!(m.live_words(), 0);
        let a = m.alloc(10, 0);
        let b = m.alloc(2, 0);
        assert_eq!(m.live_words(), 12);
        m.free(a, 10);
        assert_eq!(m.live_words(), 2);
        m.free(b, 2);
        assert_eq!(m.live_words(), 0);
    }

    #[test]
    fn homes_assigned_per_block() {
        let mut m = MemState::new(64);
        let a = m.alloc(3, 7);
        for i in 0..3 {
            assert_eq!(m.home(a + i), 7);
        }
        m.set_home(a, 3, 1);
        assert_eq!(m.home(a + 2), 1);
    }

    #[test]
    fn replace_returns_previous() {
        let mut m = MemState::new(16);
        let a = m.alloc(1, 0);
        m.poke(a, 5);
        assert_eq!(m.replace(a, 9), 5);
        assert_eq!(m.peek(a), 9);
    }
}
