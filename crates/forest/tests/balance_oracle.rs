//! Exactness of the worklist balance against the round-based reference.
//!
//! `Forest::balance` checks, after its first sweep, only the constraints
//! of new leaves and the constraints a one-level split left unmet. The
//! coarsest balanced refinement is unique, so the result must be
//! leaf-for-leaf identical to the round-based algorithm, which re-derives
//! every constraint from every leaf in every round. That algorithm lives
//! on here as a serial reference over the gathered forest
//! (`gather_all`), so the comparison covers cross-rank pairs too.
//!
//! Coverage: P ∈ {1, 2, 4}; standard, Morton and AVX encodings; 2D and
//! 3D; Face and Full; unit, brick and periodic connectivities. Bricks
//! are a single row of trees, so every tree contact is a face contact
//! (corner-only contacts are out of scope; see DESIGN.md §3.4).

use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_forest::directions::{neighbor_domain, offsets, Adjacency};
use quadforest_forest::{BalanceKind, Forest};
use std::sync::Arc;

/// A leaf as a representation-independent tuple.
type Leaf = (u32, [i32; 3], u8);

/// Rank-independent refine selector (callbacks must not depend on the
/// rank, as in MPI practice).
fn mix(seed: u64, t: u32, q_pos: u64, level: u8) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for w in [t as u64, q_pos, level as u64] {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

/// Index range of the leaves of `leaves` overlapping `q`'s domain.
fn overlapping<Q: Quadrant>(leaves: &[Q], q: &Q) -> std::ops::Range<usize> {
    let first = q.first_descendant(Q::MAX_LEVEL).morton_abs();
    let last = q.last_descendant(Q::MAX_LEVEL).morton_abs();
    let lo = leaves.partition_point(|p| p.last_descendant(Q::MAX_LEVEL).morton_abs() < first);
    let hi = leaves.partition_point(|p| p.morton_abs() <= last);
    lo..hi
}

/// The round-based balance on one process: every round derives the
/// constraints of every leaf, marks every leaf overlapping a constraint
/// domain that is more than one level too coarse, and splits the marked
/// leaves once. Rounds repeat until one splits nothing.
fn reference_balance<Q: Quadrant>(
    conn: &Connectivity,
    gathered: &[(u32, Q)],
    kind: BalanceKind,
) -> Vec<Leaf> {
    let adjacency = match kind {
        BalanceKind::Face => Adjacency::Face,
        BalanceKind::Full => Adjacency::Full,
    };
    let offs = offsets(Q::DIM, adjacency);
    let mut trees: Vec<Vec<Q>> = vec![Vec::new(); conn.num_trees()];
    for &(t, q) in gathered {
        trees[t as usize].push(q);
    }
    loop {
        let mut marks: Vec<Vec<bool>> = trees.iter().map(|t| vec![false; t.len()]).collect();
        for (t, leaves) in trees.iter().enumerate() {
            for q in leaves.iter().filter(|q| q.level() >= 2) {
                for &off in &offs {
                    let Some(dom) = neighbor_domain(conn, t as u32, q, off) else {
                        continue;
                    };
                    let probe = Q::from_coords(dom.coords, dom.level);
                    let target = &trees[dom.tree as usize];
                    for i in overlapping(target, &probe) {
                        if target[i].level() + 1 < dom.level {
                            marks[dom.tree as usize][i] = true;
                        }
                    }
                }
            }
        }
        if marks.iter().flatten().all(|m| !m) {
            break;
        }
        for (leaves, marks) in trees.iter_mut().zip(marks) {
            let old = std::mem::take(leaves);
            for (q, marked) in old.into_iter().zip(marks) {
                if marked {
                    leaves.extend((0..Q::NUM_CHILDREN).map(|c| q.child(c)));
                } else {
                    leaves.push(q);
                }
            }
        }
    }
    let mut out: Vec<Leaf> = trees
        .iter()
        .enumerate()
        .flat_map(|(t, leaves)| {
            leaves
                .iter()
                .map(move |q| (t as u32, q.coords(), q.level()))
        })
        .collect();
    out.sort();
    out
}

fn tuples<Q: Quadrant>(gathered: &[(u32, Q)]) -> Vec<Leaf> {
    let mut out: Vec<Leaf> = gathered
        .iter()
        .map(|(t, q)| (*t, q.coords(), q.level()))
        .collect();
    out.sort();
    out
}

/// Build a forest with `refine` on `p` ranks, optionally re-partition
/// it, balance it, and check the gathered result against the reference.
/// Returns each rank's refinement count and finest local level.
fn check_against_reference<Q: Quadrant>(
    conn: Connectivity,
    p: usize,
    base: u8,
    partition: bool,
    kind: BalanceKind,
    refine: impl Fn(u32, &Q) -> bool + Send + Sync + Copy,
) -> Vec<(usize, u8)> {
    let conn = Arc::new(conn);
    let results = quadforest_comm::run(p, |comm| {
        let mut f = Forest::<Q>::new_uniform(conn.clone(), &comm, base);
        f.refine(&comm, true, refine);
        if partition {
            f.partition(&comm);
        }
        let before = f.gather_all(&comm);
        let refined = f.balance(&comm, kind);
        assert_eq!(f.validate(), Ok(()));
        (before, f.gather_all(&comm), (refined, f.local_max_level()))
    });
    let (before, after, _) = &results[0];
    let expected = reference_balance(&conn, before, kind);
    let got = tuples(after);
    assert_eq!(
        got.len(),
        expected.len(),
        "P = {p}, {kind:?}: leaf count differs from the round-based reference"
    );
    assert!(
        got == expected,
        "P = {p}, {kind:?}: leaves differ from the round-based reference"
    );
    results.iter().map(|r| r.2).collect()
}

/// Random multi-level refinement plus a deep spike at the domain's
/// lower corner of tree 0, so the ripple spans several levels.
fn sweep_cases<Q: Quadrant>(conn: impl Fn() -> Connectivity, max_level: u8) {
    for kind in [BalanceKind::Face, BalanceKind::Full] {
        for seed in [3u64, 11] {
            let refine = move |t: u32, q: &Q| {
                let spike = t == 0 && q.coords() == [0, 0, 0] && q.level() < max_level + 2;
                spike || (q.level() < max_level && mix(seed, t, q.morton_abs(), q.level()) % 5 == 0)
            };
            for p in [1usize, 2, 4] {
                check_against_reference::<Q>(conn(), p, 1, true, kind, refine);
            }
        }
    }
}

fn all_connectivities_2d<Q: Quadrant>() {
    sweep_cases::<Q>(|| Connectivity::unit(2), 6);
    sweep_cases::<Q>(|| Connectivity::brick2d(3, 1, false, false), 5);
    sweep_cases::<Q>(|| Connectivity::periodic(2), 6);
}

fn all_connectivities_3d<Q: Quadrant>() {
    sweep_cases::<Q>(|| Connectivity::unit(3), 4);
    sweep_cases::<Q>(|| Connectivity::brick3d(2, 1, 1, [false; 3]), 4);
    sweep_cases::<Q>(|| Connectivity::periodic(3), 4);
}

#[test]
fn standard_2d_matches_reference() {
    all_connectivities_2d::<StandardQuad<2>>();
}

#[test]
fn morton_2d_matches_reference() {
    all_connectivities_2d::<MortonQuad<2>>();
}

#[test]
fn avx_2d_matches_reference() {
    all_connectivities_2d::<AvxQuad<2>>();
}

#[test]
fn standard_3d_matches_reference() {
    all_connectivities_3d::<StandardQuad<3>>();
}

#[test]
fn morton_3d_matches_reference() {
    all_connectivities_3d::<MortonQuad<3>>();
}

#[test]
fn avx_3d_matches_reference() {
    all_connectivities_3d::<AvxQuad<3>>();
}

/// A level-8 spike just below the middle of a uniform level-2 square.
/// At P = 2 the rank boundary runs along y = 1/2, so rank 1's level-2
/// leaves must refine at least three levels on constraints that cross
/// the boundary (and ripple back).
#[test]
fn ripple_crosses_the_rank_boundary() {
    type Q = MortonQuad<2>;
    let half = Q::len_at(0) / 2;
    let refine = move |_: u32, q: &Q| q.contains_point([half - 1, half - 1, 0]) && q.level() < 8;
    for kind in [BalanceKind::Face, BalanceKind::Full] {
        let ranks = check_against_reference::<Q>(Connectivity::unit(2), 2, 2, false, kind, refine);
        let (refined, deepest) = ranks[1];
        assert!(refined > 0, "{kind:?}: rank 1 never refined");
        assert!(
            deepest >= 5,
            "{kind:?}: the ripple reached only level {deepest} on rank 1"
        );
    }
}
