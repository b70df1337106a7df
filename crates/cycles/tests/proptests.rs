//! Property-based validation of the cycle-space machinery against
//! brute-force oracles on random small graphs.

use confine_check::cases;
use rand::Rng;

use confine_cycles::brute;
use confine_cycles::gf2::BitVec;
use confine_cycles::horton;
use confine_cycles::linalg::{Decomposer, Gf2Basis};
use confine_cycles::partition::{is_tau_partitionable, PartitionTester};
use confine_cycles::space;
use confine_cycles::Cycle;
use confine_graph::Graph;

/// Builds a random simple graph on `n` nodes from a seed of edge booleans.
fn graph_from_bits(n: usize, bits: &[bool]) -> Graph {
    let mut g = Graph::new();
    g.add_nodes(n);
    let mut k = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            if bits.get(k).copied().unwrap_or(false) {
                g.add_edge(i.into(), j.into()).expect("unique pair");
            }
            k += 1;
        }
    }
    g
}

/// A graph on `4..=max_n` nodes, each pair joined with probability 0.35.
fn arb_graph(rng: &mut impl Rng, max_n: usize) -> Graph {
    let n = rng.gen_range(4..=max_n);
    let bits: Vec<bool> = (0..n * (n - 1) / 2).map(|_| rng.gen_bool(0.35)).collect();
    graph_from_bits(n, &bits)
}

/// `len` fair coin flips.
fn arb_bits(rng: &mut impl Rng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.gen()).collect()
}

/// Horton's MCB and the brute-force MCB must report identical sorted
/// length multisets (all MCBs of a graph share them).
#[test]
fn horton_mcb_matches_brute_force() {
    cases(64, |rng| {
        let g = arb_graph(rng, 8);
        let brute: Vec<usize> = brute::brute_minimum_cycle_basis(&g)
            .iter()
            .map(Cycle::len)
            .collect();
        let fast: Vec<usize> = horton::minimum_cycle_basis(&g)
            .cycles()
            .iter()
            .map(Cycle::len)
            .collect();
        assert_eq!(brute, fast);
    });
}

/// The MCB is a basis: independent and of full rank.
#[test]
fn mcb_is_a_basis() {
    cases(64, |rng| {
        let g = arb_graph(rng, 9);
        let mcb = horton::minimum_cycle_basis(&g);
        assert_eq!(mcb.dimension(), space::circuit_rank(&g));
        let mut oracle = Gf2Basis::new(g.edge_count());
        for c in mcb.cycles() {
            assert!(c.is_simple(&g), "MCB cycles are simple");
            assert!(
                oracle.try_insert(c.edge_vec()),
                "MCB cycles are independent"
            );
        }
    });
}

/// Both exact partitionability tests — the MCB tester and the span
/// kernel — agree with the brute-force span oracle for every tau, every
/// fundamental-cycle target, the zero target and a target with odd
/// vertices.
#[test]
fn partition_test_matches_brute_force() {
    cases(64, |rng| {
        let g = arb_graph(rng, 7);
        let tester = PartitionTester::new(&g);
        let mut targets: Vec<BitVec> = space::fundamental_cycles(&g)
            .iter()
            .map(|c| c.edge_vec().clone())
            .collect();
        // Also exercise a couple of sums.
        if targets.len() >= 2 {
            let s = targets[0].xor(&targets[1]);
            targets.push(s);
        }
        if targets.len() >= 3 {
            let mut s = targets[0].clone();
            for t in &targets[1..] {
                s.xor_assign(t);
            }
            targets.push(s);
        }
        targets.push(BitVec::zeros(g.edge_count()));
        if g.edge_count() > 0 {
            // A single edge leaves both endpoints odd: outside the cycle space.
            targets.push(BitVec::from_indices(g.edge_count(), &[0]));
        }
        for t in &targets {
            for tau in 0..=g.node_count() {
                let brute = brute::brute_is_tau_partitionable(&g, t, tau);
                assert_eq!(
                    tester.is_partitionable(t, tau),
                    brute,
                    "tester: target {t:?} tau {tau}"
                );
                assert_eq!(
                    is_tau_partitionable(&g, t, tau),
                    brute,
                    "span kernel: target {t:?} tau {tau}"
                );
            }
        }
    });
}

/// min_partition_tau is exactly the threshold of the brute oracle.
#[test]
fn min_partition_tau_is_threshold() {
    cases(64, |rng| {
        let g = arb_graph(rng, 7);
        let tester = PartitionTester::new(&g);
        for c in space::fundamental_cycles(&g) {
            let t = tester
                .min_partition_tau(c.edge_vec())
                .expect("cycles are in the space");
            assert!(t <= c.len());
            assert!(brute::brute_is_tau_partitionable(&g, c.edge_vec(), t));
            if t > 0 {
                assert!(!brute::brute_is_tau_partitionable(&g, c.edge_vec(), t - 1));
            }
        }
    });
}

/// Theorem 4: Algorithm 1's bounds equal the true min/max irreducible
/// cycle lengths obtained by brute-force irreducibility checks.
#[test]
fn irreducible_bounds_match_brute_force() {
    cases(64, |rng| {
        let g = arb_graph(rng, 7);
        let bounds = horton::irreducible_cycle_bounds(&g);
        let all = brute::enumerate_simple_cycles(&g, g.node_count());
        let irreducible: Vec<usize> = all
            .iter()
            .filter(|c| brute::brute_is_irreducible(&g, c))
            .map(Cycle::len)
            .collect();
        match bounds {
            None => assert!(irreducible.is_empty()),
            Some(b) => {
                assert_eq!(b.min, *irreducible.iter().min().expect("cycles exist"));
                assert_eq!(b.max, *irreducible.iter().max().expect("cycles exist"));
            }
        }
    });
}

/// The fast span-rank predicate agrees with the bounds.
#[test]
fn max_irreducible_predicate() {
    cases(64, |rng| {
        let g = arb_graph(rng, 8);
        let tau = rng.gen_range(2usize..10);
        let expected = horton::irreducible_cycle_bounds(&g).is_none_or(|b| b.max <= tau);
        assert_eq!(horton::max_irreducible_at_most(&g, tau), expected);
    });
}

/// Decomposer round-trip: decomposing any random combination of the MCB
/// recovers exactly the combined indices.
#[test]
fn decomposer_roundtrip() {
    cases(64, |rng| {
        let g = arb_graph(rng, 8);
        let picks = arb_bits(rng, 64);
        let mcb = horton::minimum_cycle_basis(&g);
        if mcb.dimension() == 0 {
            return;
        }
        let vectors: Vec<BitVec> = mcb.cycles().iter().map(|c| c.edge_vec().clone()).collect();
        let d = Decomposer::from_basis(g.edge_count(), &vectors);
        let chosen: Vec<usize> = (0..vectors.len())
            .filter(|&i| picks.get(i).copied().unwrap_or(false))
            .collect();
        let mut target = BitVec::zeros(g.edge_count());
        for &i in &chosen {
            target.xor_assign(&vectors[i]);
        }
        assert_eq!(d.decompose(&target), Some(chosen));
    });
}

/// XOR algebra: associativity/commutativity/self-inverse on random vectors.
#[test]
fn gf2_algebra() {
    cases(64, |rng| {
        let a_len = rng.gen_range(1..200);
        let a = arb_bits(rng, a_len);
        let b_len = rng.gen_range(1..200);
        let b = arb_bits(rng, b_len);
        let len = a.len().max(b.len());
        let mk = |bits: &[bool]| {
            let idx: Vec<usize> = bits
                .iter()
                .enumerate()
                .filter(|(_, &x)| x)
                .map(|(i, _)| i)
                .collect();
            BitVec::from_indices(len, &idx)
        };
        let va = mk(&a);
        let vb = mk(&b);
        assert_eq!(va.xor(&vb), vb.xor(&va));
        assert!(va.xor(&va).is_zero());
        assert_eq!(va.xor(&vb).xor(&vb), va.clone());
        assert_eq!(va.ones().count(), va.count_ones());
    });
}

/// A random bit matrix: `0..24` rows of `1..200` bits, each set with
/// probability 0.3.
fn arb_matrix(rng: &mut impl Rng) -> (usize, Vec<Vec<bool>>) {
    let len = rng.gen_range(1usize..200);
    let rows = rng.gen_range(0usize..24);
    let m = (0..rows)
        .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
        .collect();
    (len, m)
}

/// The decomposer over the rows that [`Gf2Basis`] accepts from a random
/// matrix answers membership like the row-wise oracle: every input row
/// decomposes into basis rows that sum back to it, and a unit vector
/// decomposes exactly when the oracle contains it, so out-of-span probes
/// give `None`.
#[test]
fn decomposer_matches_rowwise_span() {
    cases(96, |rng| {
        let (len, rows) = arb_matrix(rng);
        let vectors: Vec<BitVec> = rows
            .iter()
            .map(|bits| {
                let idx: Vec<usize> = bits
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect();
                BitVec::from_indices(len, &idx)
            })
            .collect();

        let mut rowwise = Gf2Basis::new(len);
        let mut accepted = Vec::new();
        for (i, v) in vectors.iter().enumerate() {
            if rowwise.try_insert(v) {
                accepted.push(i);
            }
        }

        let basis: Vec<BitVec> = accepted.iter().map(|&i| vectors[i].clone()).collect();
        let dec = Decomposer::from_basis(len, &basis);
        assert_eq!(dec.basis_size(), rowwise.rank());
        for (i, v) in vectors.iter().enumerate() {
            let used = dec.decompose(v).expect("input rows are in the span");
            let mut sum = BitVec::zeros(len);
            for &j in &used {
                sum.xor_assign(&basis[j]);
            }
            assert_eq!(&sum, v, "decomposition of row {i} must sum back");
        }
        for p in 0..len {
            let unit = BitVec::from_indices(len, &[p]);
            assert_eq!(
                dec.decompose(&unit).is_some(),
                rowwise.contains(&unit),
                "unit vector {p}"
            );
        }
    });
}
