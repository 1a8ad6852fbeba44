//! Parallel 2:1 balance.
//!
//! A forest is 2:1 balanced when no leaf is adjacent (across the chosen
//! relations: faces, or faces+edges+corners) to a leaf more than one
//! refinement level away. Balancing only ever *refines* (as in p4est):
//! the result is the unique coarsest balanced refinement of the input.
//!
//! # Constraints and the one-ancestor lookup
//!
//! Each leaf `q` of level ≥ 2 emits, for every neighbor domain `D` of its
//! own size, the constraint "any leaf overlapping `D` must have level ≥
//! `level(q) − 1`". A leaf overlapping `D` either lies inside `D` (and
//! meets the constraint) or strictly contains it, so a constraint has at
//! most one violator: the leaf that is a strict ancestor of `D` at level
//! ≤ `level(q) − 2`. Leaves are disjoint and SFC-sorted, so that leaf is
//! the last one whose `morton_abs` is ≤ `D`'s, found with one
//! `partition_point`. A domain inside `q`'s grandparent needs no lookup:
//! the leaves overlapping it descend from that grandparent, which is not
//! a leaf, so none is coarser than `level(q) − 1`.
//!
//! # The worklist
//!
//! A *sweep* checks a batch of constraints and splits every violator
//! once. Only the first sweep emits from every leaf, because balance
//! cannot know what the caller changed. Every later sweep checks only
//!
//! * the constraints of leaves created by the previous split, and
//! * *carried* constraints: those a one-level split left unmet (the
//!   violator was at `level + 1 < level(q) − 1`). Without them a level-2
//!   leaf next to a level-6 leaf would stop after one split.
//!
//! Sweeps repeat until one splits nothing. This reaches the same fixed
//! point as re-deriving every constraint from every leaf in every sweep:
//! constraints only ask for more refinement, so one that was met stays
//! met; and a split leaf's constraints are implied by its children's
//! (each child's same-size neighbor domain lies inside the parent's, and
//! a leaf containing the parent's domain contains the child's, under a
//! stricter bound). The coarsest balanced refinement is unique, so the
//! output is leaf-identical to the round-based algorithm; the test
//! `tests/balance_oracle.rs` keeps that algorithm as its reference.
//!
//! # Ranks
//!
//! A constraint whose domain reaches outside this rank's SFC range is
//! also shipped to the ranks that own the rest of it. Each outer round
//! runs the local sweeps to their fixed point, exchanges every
//! constraint emitted since the previous exchange in one `alltoallv`,
//! and checks the incoming batch with the same lookup (unmet ones are
//! carried into the next round's sweeps). A round in which no rank
//! split on incoming constraints is the global fixed point; an
//! allreduce detects it. Convergence is guaranteed because levels are
//! bounded by [`Quadrant::MAX_LEVEL`] and every sweep only refines.
//!
//! Inter-tree constraints propagate across *face* connections (including
//! edge/corner offsets that exit through a single tree face); tree-edge
//! and tree-corner connections are not modeled (see DESIGN.md).

use crate::directions::{
    for_each_neighbor_domain, neighbor_domain, offsets, Adjacency, NeighborDomain, NeighborScratch,
};
use crate::Forest;
use quadforest_comm::Comm;
use quadforest_core::quadrant::Quadrant;

/// Which neighbor relations the 2:1 constraint covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BalanceKind {
    /// Faces only (p4est's `P4EST_CONNECT_FACE`).
    Face,
    /// Faces, edges (3D) and corners (`P4EST_CONNECT_FULL`).
    Full,
}

impl BalanceKind {
    fn adjacency(self) -> Adjacency {
        match self {
            BalanceKind::Face => Adjacency::Face,
            BalanceKind::Full => Adjacency::Full,
        }
    }
}

/// A balance constraint: leaves overlapping the domain anchored at
/// `coords` (level `level`) in `tree` must be at least `level - 1` deep.
type Constraint = (u32, [i32; 3], u8);

/// What one batch of constraint checks found.
struct Violations {
    /// Per tree, indices of the leaves to split (unsorted, may repeat).
    marks: Vec<Vec<usize>>,
    /// Constraints a one-level split of their violator leaves unmet.
    carried: Vec<Constraint>,
    /// Number of constraints looked up.
    checked: u64,
}

impl Violations {
    fn new(trees: usize) -> Self {
        Self {
            marks: vec![Vec::new(); trees],
            carried: Vec::new(),
            checked: 0,
        }
    }
}

impl<Q: Quadrant> Forest<Q> {
    /// 2:1-balance the forest (collective). Returns the number of leaves
    /// refined on this rank.
    pub fn balance(&mut self, comm: &Comm, kind: BalanceKind) -> usize {
        let _span = quadforest_telemetry::span("balance");
        let offs = offsets(Q::DIM, kind.adjacency());
        let mut scratch = NeighborScratch::new();
        // leaves whose constraints are not emitted yet; `None` = all
        let mut fresh: Option<Vec<Vec<Q>>> = None;
        let mut carried: Vec<Constraint> = Vec::new();
        let mut refined_total = 0;
        loop {
            let _round = quadforest_telemetry::span("balance.round");
            quadforest_telemetry::counter_add("forest.balance.rounds", 1);
            // constraints this round emits, per target rank
            let mut outgoing: Vec<Vec<Constraint>> = vec![Vec::new(); self.size];
            // local fixed point
            loop {
                quadforest_telemetry::counter_add("forest.balance.sweeps", 1);
                let mut found = Violations::new(self.trees.len());
                for c in carried {
                    self.check(c, &mut found);
                }
                // leaves below level 2 cannot constrain anyone below
                // level 1 and are skipped by the enumeration's level floor
                for t in 0..self.trees.len() {
                    let sources = match &fresh {
                        None => &self.trees[t],
                        Some(fresh) => &fresh[t],
                    };
                    for_each_neighbor_domain(
                        self.connectivity(),
                        t as u32,
                        sources,
                        &offs,
                        2,
                        &mut scratch,
                        |i, _, dom| {
                            self.route(t as u32, &sources[i], dom, &mut found, &mut outgoing)
                        },
                    );
                }
                let (split, new, unmet) = self.split(found);
                (fresh, carried) = (Some(new), unmet);
                refined_total += split;
                if split == 0 {
                    break;
                }
            }

            quadforest_telemetry::counter_add(
                "forest.balance.constraints_sent",
                outgoing.iter().map(|v| v.len() as u64).sum(),
            );
            let incoming = comm.alltoallv(outgoing);
            let mut found = Violations::new(self.trees.len());
            for c in incoming.into_iter().flatten() {
                self.check(c, &mut found);
            }
            let (split, new, unmet) = self.split(found);
            (fresh, carried) = (Some(new), unmet);
            refined_total += split;

            // the local sweeps emitted every leaf's constraints before the
            // exchange, so a round in which no rank split on incoming
            // constraints is the global fixed point
            if comm.allreduce((split > 0) as u64, |a, b| a | b) == 0 {
                break;
            }
        }
        self.refresh_global(comm);
        debug_assert_eq!(self.validate(), Ok(()));
        self.guard_phase("balance");
        refined_total
    }

    /// Check the constraint leaf `source` of tree `tree` emits on `dom`:
    /// skip it when the domain lies inside the source's grandparent (see
    /// the module doc), look up its violator when the domain may hold a
    /// local leaf, and queue it for every other rank whose SFC range the
    /// domain reaches.
    fn route(
        &self,
        tree: u32,
        source: &Q,
        dom: &NeighborDomain,
        found: &mut Violations,
        outgoing: &mut [Vec<Constraint>],
    ) {
        let c = (dom.tree, dom.coords, dom.level);
        let q = Q::from_coords(dom.coords, dom.level);
        if dom.tree == tree && source.ancestor(dom.level - 2).is_ancestor_of(&q) {
            return;
        }
        let first = q.morton_abs();
        let last = first + ((1u64 << (Q::DIM * (Q::MAX_LEVEL - dom.level) as u32)) - 1);
        let local = if self.is_local_position((dom.tree, first))
            && self.is_local_position((dom.tree, last))
        {
            true
        } else {
            let owners = self.owner_of_position((dom.tree, first))
                ..=self.owner_of_position((dom.tree, last));
            for (r, out) in owners.clone().zip(&mut outgoing[owners.clone()]) {
                if r != self.rank {
                    out.push(c);
                }
            }
            owners.contains(&self.rank)
        };
        if local {
            self.lookup(c, &q, first, found);
        }
    }

    /// Check one constraint against the local leaves.
    fn check(&self, c: Constraint, found: &mut Violations) {
        let dom = Q::from_coords(c.1, c.2);
        self.lookup(c, &dom, dom.morton_abs(), found);
    }

    /// Find the single possible violator of constraint `c` on domain
    /// `dom` (curve index `key`): the last local leaf at or before `key`,
    /// if it strictly contains `dom` and is more than one level coarser.
    fn lookup(&self, c: Constraint, dom: &Q, key: u64, found: &mut Violations) {
        found.checked += 1;
        let (tree, _, level) = c;
        let leaves = &self.trees[tree as usize];
        let i = leaves.partition_point(|p| p.morton_abs() <= key);
        let Some(p) = i.checked_sub(1).map(|j| &leaves[j]) else {
            return;
        };
        if p.level() + 1 < level && p.is_ancestor_of(dom) {
            found.marks[tree as usize].push(i - 1);
            if p.level() + 2 < level {
                found.carried.push(c);
            }
        }
    }

    /// Split every marked leaf once (one rebuild per affected tree).
    /// Returns the number of splits, the new leaves per tree (the next
    /// sweep's sources) and the carried constraints.
    fn split(&mut self, found: Violations) -> (usize, Vec<Vec<Q>>, Vec<Constraint>) {
        quadforest_telemetry::counter_add("forest.balance.constraints_checked", found.checked);
        let mut split = 0;
        let mut fresh = vec![Vec::new(); self.trees.len()];
        for (t, mut marks) in found.marks.into_iter().enumerate() {
            if marks.is_empty() {
                continue;
            }
            marks.sort_unstable();
            marks.dedup();
            split += marks.len();
            let old = std::mem::take(&mut self.trees[t]);
            let mut out: Vec<Q> =
                Vec::with_capacity(old.len() + marks.len() * (Q::NUM_CHILDREN as usize - 1));
            let mut next = marks.into_iter().peekable();
            for (i, q) in old.into_iter().enumerate() {
                if next.next_if_eq(&i).is_some() {
                    for c in 0..Q::NUM_CHILDREN {
                        let child = q.child(c);
                        out.push(child);
                        fresh[t].push(child);
                    }
                } else {
                    out.push(q);
                }
            }
            self.trees[t] = out;
        }
        (split, fresh, found.carried)
    }

    /// Check the 2:1 property among this rank's own leaves, returning the
    /// first violation found. There is no ghost input: pairs of leaves on
    /// different ranks are not checked. For a cross-rank check, gather
    /// the forest (`gather_all`) and compare against a serial reference,
    /// as `tests/balance_oracle.rs` does. Used by tests; collective-free.
    pub fn is_balanced_local(&self, kind: BalanceKind) -> Result<(), String> {
        for (t, q) in self.leaves() {
            if q.level() < 2 {
                continue;
            }
            for off in offsets(Q::DIM, kind.adjacency()) {
                let Some(dom) = neighbor_domain(self.connectivity(), t, q, off) else {
                    continue;
                };
                let probe = Q::from_coords(dom.coords, dom.level);
                let range = self.overlapping_range(dom.tree, &probe);
                for p in &self.trees[dom.tree as usize][range] {
                    if p.level() + 1 < q.level() {
                        return Err(format!(
                            "leaf {q:?} in tree {t} (level {}) neighbors {p:?} in tree {} (level {})",
                            q.level(),
                            dom.tree,
                            p.level()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{AvxQuad, MortonQuad, StandardQuad};
    use std::sync::Arc;

    type Q2 = StandardQuad<2>;
    type Q3 = StandardQuad<3>;

    /// Serial balance of a point refinement: refining the single path of
    /// quadrants containing the domain center produces leaves hugging
    /// the center from one side, directly adjacent to level-1 leaves on
    /// the other — a hard 2:1 violation that must ripple outward.
    #[test]
    fn balance_point_refinement_2d() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
            f.refine(&comm, true, |_, q| {
                q.contains_point(center) && q.level() < 6
            });
            assert!(
                f.is_balanced_local(BalanceKind::Face).is_err(),
                "a 5-level jump at the center must violate 2:1"
            );
            let n = f.balance(&comm, BalanceKind::Face);
            assert!(n > 0);
            assert_eq!(f.validate(), Ok(()));
            f.is_balanced_local(BalanceKind::Face).unwrap();
        });
    }

    #[test]
    fn balance_full_is_stronger_than_face() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let build = |comm: &quadforest_comm::Comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let mut f = Forest::<Q2>::new_uniform(conn, comm, 1);
                let center = [Q2::len_at(0) / 2, Q2::len_at(0) / 2, 0];
                f.refine(comm, true, |_, q| q.contains_point(center) && q.level() < 7);
                f
            };
            let mut face = build(&comm);
            face.balance(&comm, BalanceKind::Face);
            let mut full = build(&comm);
            full.balance(&comm, BalanceKind::Full);
            full.is_balanced_local(BalanceKind::Full).unwrap();
            assert!(
                full.global_count() >= face.global_count(),
                "full balance can only add leaves over face balance"
            );
            // face-balanced mesh generally violates the corner condition
            assert!(face.is_balanced_local(BalanceKind::Full).is_err());
            let _ = conn;
        });
    }

    #[test]
    fn balance_3d_with_edges() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Full);
            assert_eq!(f.validate(), Ok(()));
            f.is_balanced_local(BalanceKind::Full).unwrap();
        });
    }

    #[test]
    fn balance_is_idempotent() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Face);
            let count = f.global_count();
            let n = f.balance(&comm, BalanceKind::Face);
            assert_eq!(n, 0, "balanced forest must not refine again");
            assert_eq!(f.global_count(), count);
        });
    }

    #[test]
    fn balance_across_tree_faces() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::brick2d(2, 1, false, false));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 1);
            // refine deeply against the shared face from tree 0's side
            let root = Q2::len_at(0);
            f.refine(&comm, true, |t, q| {
                t == 0 && q.coords()[0] + q.side() == root && q.coords()[1] == 0 && q.level() < 6
            });
            f.balance(&comm, BalanceKind::Face);
            f.is_balanced_local(BalanceKind::Face).unwrap();
            // tree 1 must have been refined near its -x face
            let deep_in_tree1 = f
                .tree_leaves(1)
                .iter()
                .filter(|q| q.coords()[0] == 0)
                .map(|q| q.level())
                .max()
                .unwrap();
            assert!(
                deep_in_tree1 >= 4,
                "balance must ripple into tree 1, got max level {deep_in_tree1}"
            );
        });
    }

    #[test]
    fn balance_distributed_matches_serial() {
        // The balanced forest must be identical for every rank count.
        let serial = quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| {
                q.coords()[0] == 0 && q.coords()[1] == 0 && q.level() < 6
            });
            f.balance(&comm, BalanceKind::Face);
            f.checksum(&comm)
        })[0];
        for p in [2usize, 3, 5] {
            let sums = quadforest_comm::run(p, |comm| {
                let conn = Arc::new(Connectivity::unit(2));
                let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
                f.refine(&comm, true, |_, q| {
                    q.coords()[0] == 0 && q.coords()[1] == 0 && q.level() < 6
                });
                f.balance(&comm, BalanceKind::Face);
                assert_eq!(f.validate(), Ok(()));
                f.checksum(&comm)
            });
            assert!(
                sums.iter().all(|s| *s == serial),
                "P = {p}: balanced forest differs from serial result"
            );
        }
    }

    #[test]
    fn balance_periodic_wraps() {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::periodic(2));
            let mut f = Forest::<AvxQuad<2>>::new_uniform(conn, &comm, 1);
            f.refine(&comm, true, |_, q| q.coords() == [0, 0, 0] && q.level() < 5);
            f.balance(&comm, BalanceKind::Face);
            f.is_balanced_local(BalanceKind::Face).unwrap();
            // the far side of the periodic domain must feel the ripple
            let root = Q2::len_at(0);
            let far = f
                .tree_leaves(0)
                .iter()
                .filter(|q| q.coords()[0] + q.side() == root && q.coords()[1] == 0)
                .map(|q| q.level())
                .max()
                .unwrap();
            assert!(far >= 3, "periodic wrap missing: far-side max level {far}");
        });
    }

    #[test]
    fn balance_is_fault_oblivious() {
        use quadforest_comm::FaultPlan;
        use std::time::Duration;
        let program = |comm: quadforest_comm::Comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q2>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| {
                q.coords()[0] == 0 && q.coords()[1] == 0 && q.level() < 6
            });
            f.balance(&comm, BalanceKind::Face);
            assert_eq!(f.validate(), Ok(()));
            f.checksum(&comm)
        };
        let baseline = quadforest_comm::run(3, program);
        for seed in [2u64, 29] {
            let plan = FaultPlan::new(seed)
                .with_delays(0.25, Duration::from_micros(100))
                .with_reordering(0.25);
            let chaotic = quadforest_comm::run_with_faults(3, plan, program).unwrap();
            assert_eq!(baseline, chaotic, "seed {seed} changed the balanced mesh");
        }
    }

    #[test]
    fn already_balanced_uniform_is_untouched() {
        quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(3));
            let mut f = Forest::<Q3>::new_uniform(conn, &comm, 3);
            let before = f.checksum(&comm);
            let n = f.balance(&comm, BalanceKind::Full);
            assert_eq!(n, 0);
            assert_eq!(f.checksum(&comm), before);
        });
    }
}
