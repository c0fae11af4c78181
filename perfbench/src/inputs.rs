//! Seeded input generation. Everything a workload feeds the queue — hold
//! prefill keys, hold increments, the sssp graph — is a pure function of
//! the benchmark's `--seed`.

/// Mean of the exponential hold increment (and of the prefill keys).
const KEY_MEAN: f64 = 4_294_967_296.0;

/// Hold increments per worker; a worker cycles through its table.
pub const INCREMENT_TABLE: usize = 1 << 16;

/// SplitMix64: a small, well-mixed generator for input streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// An exponential draw with mean [`KEY_MEAN`], as an integer key delta.
    fn exp_key(&mut self) -> u64 {
        // 53 random bits mapped to (0, 1]: ln is finite.
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        (-u.ln() * KEY_MEAN) as u64
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PREFILL_STREAM: u64 = 1;
const INCREMENT_STREAM: u64 = 0x100;
const GRAPH_STREAM: u64 = 2;

/// Initial hold keys. Exponential keys are the hold model's stationary
/// state for exponential increments (each held item is the residual life
/// of a renewal process, and the exponential is memoryless), so the key
/// distribution does not drift however long a run lasts.
pub fn prefill_keys(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, PREFILL_STREAM);
    (0..n).map(|_| rng.exp_key()).collect()
}

/// Worker `worker`'s hold increments: a step that removes key `k` inserts
/// `k + increments[i % INCREMENT_TABLE]`.
pub fn hold_increments(seed: u64, worker: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, INCREMENT_STREAM + worker as u64);
    (0..INCREMENT_TABLE).map(|_| rng.exp_key()).collect()
}

/// A directed graph in CSR form.
#[derive(Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<(u32, u32)>,
}

impl Graph {
    /// `n` vertices, each with a backbone edge to its successor (so every
    /// vertex is reachable from 0) plus `deg` random out-edges, weights
    /// 1..=1000 — the shape of `examples/parallel_sssp.rs`.
    pub fn random(n: usize, deg: usize, seed: u64) -> Self {
        let mut g = Graph {
            offsets: Vec::new(),
            adj: Vec::new(),
        };
        g.refill(n, deg, seed);
        g
    }

    /// Rebuilds `self` as [`Graph::random`]`(n, deg, seed)`, reusing its
    /// memory.
    pub fn refill(&mut self, n: usize, deg: usize, seed: u64) {
        let mut rng = Rng::new(seed, GRAPH_STREAM);
        self.offsets.clear();
        self.adj.clear();
        self.offsets.reserve(n + 1);
        self.adj.reserve(n * (deg + 1));
        self.offsets.push(0);
        for v in 0..n {
            self.adj
                .push((((v + 1) % n) as u32, (rng.next_u64() % 1_000 + 1) as u32));
            for _ in 0..deg {
                let to = (rng.next_u64() % n as u64) as u32;
                let w = (rng.next_u64() % 1_000 + 1) as u32;
                self.adj.push((to, w));
            }
            self.offsets.push(self.adj.len());
        }
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Out-edges of `v` as `(target, weight)`.
    pub fn out(&self, v: u32) -> &[(u32, u32)] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Sequential Dijkstra on a binary heap: the reference every sssp result
/// is checked against.
pub fn dijkstra(g: &Graph, src: u32) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![u64::MAX; g.n()];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(to, w) in g.out(v) {
            let nd = d + u64::from(w);
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                heap.push(Reverse((nd, to)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs_and_two_seeds_differ() {
        assert_eq!(prefill_keys(7, 500), prefill_keys(7, 500));
        assert_eq!(hold_increments(7, 1), hold_increments(7, 1));
        assert_eq!(Graph::random(300, 6, 7), Graph::random(300, 6, 7));

        assert_ne!(prefill_keys(7, 500), prefill_keys(8, 500));
        assert_ne!(hold_increments(7, 1), hold_increments(8, 1));
        assert_ne!(Graph::random(300, 6, 7), Graph::random(300, 6, 8));
        // Workers draw from distinct streams of one seed.
        assert_ne!(hold_increments(7, 0), hold_increments(7, 1));
        let mut g = Graph::random(300, 6, 8);
        g.refill(300, 6, 7);
        assert_eq!(g, Graph::random(300, 6, 7));
    }

    #[test]
    fn increments_have_the_configured_mean() {
        let inc = hold_increments(3, 0);
        let mean = inc.iter().map(|&x| x as f64).sum::<f64>() / inc.len() as f64;
        assert!((mean / KEY_MEAN - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn reference_dijkstra_reaches_every_vertex() {
        let g = Graph::random(1_000, 6, 11);
        let d = dijkstra(&g, 0);
        assert_eq!(d[0], 0);
        assert!(d.iter().all(|&x| x != u64::MAX));
    }
}
