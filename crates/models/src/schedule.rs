//! The GGNN's receptive-field schedule (paper Sec. 4.3).
//!
//! After `T` message-passing steps a node's state depends only on nodes
//! within `T` hops of it, against the direction messages travel. The
//! encoder reads only the targets' final states, so step `t` has to
//! update only the set `A_t`: `A_T` is the set of target nodes, and
//! `A_{t-1}` is `A_t` plus every source of an edge into `A_t`. A
//! [`Schedule`] records these sets once per file, with every edge into
//! each `A_t` remapped into the compact row spaces of steps `t-1` and
//! `t`, so the forward pass never computes a row no target reads.
//!
//! Why the pruned forward is bit-identical to the all-nodes one (see
//! `DESIGN.md` §9): every op on the path is row-wise or per-segment, the
//! surviving rows keep their relative order (active sets ascend by node,
//! edges keep relation and edge order), and pruned rows would only ever
//! have received exactly-zero gradients, which add nothing to any
//! zero-initialised gradient accumulator.

use serde::{Deserialize, Serialize};

/// One message-passing step `t` (`1..=T`) of a [`Schedule`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScheduleStep {
    /// Nodes updated at this step (`A_t`), ascending: row `i` of the
    /// step's state matrix is node `active[i]`.
    pub active: Vec<u32>,
    /// Each `A_t` row's row in `A_{t-1}`, the GRU's previous-state
    /// input. Empty when `A_t = A_{t-1}` (the rows already line up).
    pub carry: Vec<u32>,
    /// Message sources as rows of `A_{t-1}`: the edges into `A_t`,
    /// grouped by relation slot in [`Schedule::slots`] order, each group
    /// in edge order.
    pub src: Vec<u32>,
    /// Message destinations as rows of `A_t`, aligned with `src`.
    pub dst: Vec<u32>,
    /// `offsets[i]..offsets[i + 1]` bounds slot `slots[i]`'s edges in
    /// `src`/`dst`.
    pub offsets: Vec<u32>,
}

/// The per-file receptive-field schedule of the GGNN.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Relation slots with at least one edge in the file, ascending.
    /// Every step applies each of their message functions, to zero rows
    /// if no edge of the slot enters `A_t`, so a slot's weights get a
    /// gradient exactly when the all-nodes forward would give them one
    /// (Adam moves a weight on a zero gradient, not on a missing one).
    pub slots: Vec<usize>,
    /// Nodes whose initial state is computed (`A_0`), ascending.
    pub initial: Vec<u32>,
    /// Steps `1..=T`.
    pub steps: Vec<ScheduleStep>,
    /// Each target's row in the last active set (`A_T`; `A_0` when
    /// `T = 0`), in target order.
    pub target_rows: Vec<u32>,
}

impl Schedule {
    /// Builds the schedule of `steps` message-passing steps over a graph
    /// of `num_nodes` nodes whose `(src, dst)` edges are grouped by
    /// relation slot, for the given target nodes.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint or target is `>= num_nodes`.
    pub fn build(
        num_nodes: usize,
        relations: &[Vec<(u32, u32)>],
        targets: &[u32],
        steps: usize,
    ) -> Schedule {
        // The sets nest (A_T ⊆ … ⊆ A_0), so one number per node says
        // which it belongs to: `level[n] = t + 1` for the largest `t`
        // with `n ∈ A_t`, 0 if none. So `n ∈ A_t ⟺ level[n] > t`.
        let mut level = vec![0usize; num_nodes];
        for &n in targets {
            level[n as usize] = steps + 1;
        }
        for t in (1..=steps).rev() {
            let mut grew = false;
            for &(s, d) in relations.iter().flatten() {
                // Sources added in this pass get level `t`, so they do
                // not count as destinations in `A_t` until the next one.
                if level[d as usize] > t && level[s as usize] == 0 {
                    level[s as usize] = t;
                    grew = true;
                }
            }
            if !grew {
                // A fixpoint: A_{t-1} = A_t, so every earlier set is too.
                break;
            }
        }

        let slots: Vec<usize> = relations
            .iter()
            .enumerate()
            .filter(|(_, edges)| !edges.is_empty())
            .map(|(k, _)| k)
            .collect();
        let active_at = |t: usize| -> Vec<u32> {
            (0..num_nodes as u32)
                .filter(|&n| level[n as usize] > t)
                .collect()
        };
        // `rank[n]` = row of node `n` in `A_t` (`u32::MAX` outside it).
        let rank_at = |t: usize, rank: &mut Vec<u32>| {
            rank.clear();
            let mut next = 0u32;
            rank.extend(level.iter().map(|&l| {
                if l > t {
                    next += 1;
                    next - 1
                } else {
                    u32::MAX
                }
            }));
        };

        let initial = active_at(0);
        let mut prev_rank = Vec::with_capacity(num_nodes);
        let mut rank = Vec::with_capacity(num_nodes);
        rank_at(0, &mut prev_rank);
        let mut prev_len = initial.len();
        let mut schedule_steps = Vec::with_capacity(steps);
        for t in 1..=steps {
            let active = active_at(t);
            rank_at(t, &mut rank);
            let carry = if active.len() == prev_len {
                Vec::new()
            } else {
                active.iter().map(|&n| prev_rank[n as usize]).collect()
            };
            let mut src = Vec::new();
            let mut dst = Vec::new();
            let mut offsets = Vec::with_capacity(slots.len() + 1);
            offsets.push(0);
            for &k in &slots {
                for &(s, d) in &relations[k] {
                    if level[d as usize] > t {
                        src.push(prev_rank[s as usize]);
                        dst.push(rank[d as usize]);
                    }
                }
                offsets.push(src.len() as u32);
            }
            prev_len = active.len();
            schedule_steps.push(ScheduleStep {
                active,
                carry,
                src,
                dst,
                offsets,
            });
            std::mem::swap(&mut prev_rank, &mut rank);
        }
        let target_rows = targets.iter().map(|&n| prev_rank[n as usize]).collect();
        Schedule {
            slots,
            initial,
            steps: schedule_steps,
            target_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain 0 → 1 → 2 → 3 in slot 0 plus an unrelated edge 5 → 4 in
    /// slot 3; the target is node 3.
    fn chain() -> Vec<Vec<(u32, u32)>> {
        let mut rels = vec![Vec::new(); 4];
        rels[0] = vec![(0, 1), (1, 2), (2, 3)];
        rels[3] = vec![(5, 4)];
        rels
    }

    #[test]
    fn active_sets_grow_one_hop_per_step_backwards() {
        let s = Schedule::build(6, &chain(), &[3], 2);
        assert_eq!(s.slots, vec![0, 3]);
        assert_eq!(s.initial, vec![1, 2, 3]);
        assert_eq!(s.steps[0].active, vec![2, 3]);
        assert_eq!(s.steps[1].active, vec![3]);
        // Step 1: edges into {2, 3} are 1→2 and 2→3; rows of A_0 = {1,2,3}
        // and A_1 = {2,3}. Slot 3 contributes nothing.
        assert_eq!(s.steps[0].src, vec![0, 1]);
        assert_eq!(s.steps[0].dst, vec![0, 1]);
        assert_eq!(s.steps[0].offsets, vec![0, 2, 2]);
        assert_eq!(s.steps[0].carry, vec![1, 2]);
        // Step 2: only 2→3, from row 0 of A_1 into row 0 of A_2.
        assert_eq!(s.steps[1].src, vec![0]);
        assert_eq!(s.steps[1].dst, vec![0]);
        assert_eq!(s.steps[1].carry, vec![1]);
        assert_eq!(s.target_rows, vec![0]);
    }

    #[test]
    fn fixpoint_keeps_later_sets_equal_and_carry_empty() {
        // A 2-cycle reaches its fixpoint after one step back.
        let rels = vec![vec![(0, 1), (1, 0)]];
        let s = Schedule::build(3, &rels, &[1], 4);
        assert_eq!(s.initial, vec![0, 1]);
        assert_eq!(s.steps[3].active, vec![1]);
        for step in &s.steps[..3] {
            assert_eq!(step.active, vec![0, 1]);
            assert!(step.carry.is_empty(), "equal sets need no carry gather");
        }
        assert_eq!(s.steps[3].carry, vec![1]);
    }

    #[test]
    fn zero_steps_and_duplicate_targets() {
        let s = Schedule::build(4, &chain(), &[2, 0, 2], 0);
        assert!(s.steps.is_empty());
        assert_eq!(s.initial, vec![0, 2]);
        assert_eq!(s.target_rows, vec![1, 0, 1]);
    }
}
