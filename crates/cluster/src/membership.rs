//! Rank membership: which physical node runs which tile, and the spare pool.
//!
//! The solvers assign one image tile per *logical rank* (a **slot**). On a
//! production cluster the process occupying a slot — a **node** — can die
//! permanently, and the paper-scale deployments this reproduction models
//! (Summit-class machines) treat that as routine, not exceptional. This
//! module is the bookkeeping layer that lets a run survive it:
//!
//! * [`MembershipView`] is the epoch-numbered slot → node assignment table
//!   shared (read-only) by every live rank of one attempt. It also owns the
//!   **spare pool**: standby node ids that idle unassigned until a failure
//!   detector verdict promotes one.
//! * [`MembershipView::substitute`] is the promotion step: the dead node is
//!   retired, the lowest-numbered spare adopts its slot, and the membership
//!   **epoch** is bumped so every rank (and every seeded fault policy keyed
//!   on wire traffic) can tell the regimes apart.
//!
//! Membership epochs are **not** the reliable layer's wire epochs: a wire
//! epoch (the `epoch` of [`crate::ReliableComm::new`]) counts *attempts* (checkpoint
//! restarts and substitutions alike) so retransmit streams never alias
//! across attempts, while a membership epoch counts *promotions* — it only
//! moves when the assignment table changes. A run that restarts twice
//! without losing a node bumps the wire epoch twice and the membership
//! epoch not at all.
//!
//! The failure detector is the runtime's verdict, as in ULFM-style MPI
//! fault tolerance: a node is declared dead by the runtime that knows its
//! comm state (in this repository, the simulated backends, whose killed rank
//! fails with `CommError::RankDead`; on a real cluster, the MPI runtime's
//! revoke notification), not by a liveness probe between ranks. The
//! iteration engine in `ptycho-core` acts on verdicts at consistency-barrier
//! boundaries, where every surviving rank's checkpoint provably refers to
//! the same iteration.

use std::collections::VecDeque;

/// The identity of a physical node (process), as opposed to the *slot*
/// (logical rank / tile index) it currently occupies. Node ids are stable
/// for the lifetime of a reconstruction; slots are re-assigned when a node
/// dies and a spare adopts its tile.
pub type NodeId = usize;

/// Errors from membership-table updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// A node needed replacing but the spare pool is empty.
    SparesExhausted {
        /// The dead node that could not be replaced.
        dead_node: NodeId,
    },
    /// The node is not currently assigned to any slot (already dead, a
    /// spare, or unknown), so it cannot be substituted.
    NotAssigned {
        /// The offending node id.
        node: NodeId,
    },
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::SparesExhausted { dead_node } => write!(
                f,
                "node {dead_node} died permanently and the spare pool is exhausted"
            ),
            MembershipError::NotAssigned { node } => {
                write!(f, "node {node} is not assigned to any slot")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

/// The epoch-numbered rank-membership table: which node occupies each slot,
/// which nodes are standing by as spares, and which are dead.
///
/// One instance is shared (read-only) by every rank of an attempt; the
/// recovery driver mutates it between attempts, at consistency-barrier
/// boundaries, and bumps [`MembershipView::epoch`] on every promotion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipView {
    epoch: u64,
    /// `assignment[slot]` is the node currently running that slot's tile.
    assignment: Vec<NodeId>,
    /// Standby nodes, promoted lowest-id first.
    spares: VecDeque<NodeId>,
    /// Nodes retired by a failure-detector verdict, in verdict order.
    dead: Vec<NodeId>,
}

impl MembershipView {
    /// A fresh table: nodes `0..slots` each own their slot, nodes
    /// `slots..slots + spares` stand by in the spare pool, epoch 0.
    pub fn new(slots: usize, spares: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        Self {
            epoch: 0,
            assignment: (0..slots).collect(),
            spares: (slots..slots + spares).collect(),
            dead: Vec::new(),
        }
    }

    /// Rebuilds a table from its persisted parts — the inverse of reading
    /// [`MembershipView::epoch`] / [`MembershipView::assignment`] /
    /// [`MembershipView::spare_nodes`] / [`MembershipView::dead_nodes`].
    /// Used by the durability layer to restore the membership state a killed
    /// process had committed, substitutions included, so a resumed run
    /// neither re-promotes an already-promoted spare nor re-runs a dead node.
    ///
    /// # Panics
    /// Panics when the parts are inconsistent: an empty assignment, or a
    /// node appearing in more than one of assignment/spares/dead.
    pub fn from_parts(
        epoch: u64,
        assignment: Vec<NodeId>,
        spares: Vec<NodeId>,
        dead: Vec<NodeId>,
    ) -> Self {
        assert!(!assignment.is_empty(), "need at least one slot");
        let mut seen = std::collections::HashSet::new();
        for &node in assignment.iter().chain(spares.iter()).chain(dead.iter()) {
            assert!(
                seen.insert(node),
                "node {node} appears in more than one membership role"
            );
        }
        Self {
            epoch,
            assignment,
            spares: spares.into(),
            dead,
        }
    }

    /// Number of tile slots (logical ranks).
    pub fn slots(&self) -> usize {
        self.assignment.len()
    }

    /// The membership epoch: bumped once per promotion, never otherwise.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The slot → node assignment table.
    pub fn assignment(&self) -> &[NodeId] {
        &self.assignment
    }

    /// The node currently occupying `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn node_for_slot(&self, slot: usize) -> NodeId {
        self.assignment[slot]
    }

    /// The slot a node currently occupies, if any.
    pub fn slot_of_node(&self, node: NodeId) -> Option<usize> {
        self.assignment.iter().position(|&n| n == node)
    }

    /// Number of spares still standing by.
    pub fn spares_remaining(&self) -> usize {
        self.spares.len()
    }

    /// The standby nodes in promotion order (lowest-id first).
    pub fn spare_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.spares.iter().copied()
    }

    /// Nodes retired by failure-detector verdicts, in verdict order.
    pub fn dead_nodes(&self) -> &[NodeId] {
        &self.dead
    }

    /// True when the node has been declared dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.contains(&node)
    }

    /// Every node the view knows about: assigned, standby and dead.
    pub fn total_nodes(&self) -> usize {
        self.assignment.len() + self.spares.len() + self.dead.len()
    }

    /// Acts on a failure-detector verdict: retires `dead_node`, promotes the
    /// lowest-numbered spare into its slot, and bumps the epoch. Returns the
    /// `(slot, replacement)` pair so the caller can hand the adopted slot's
    /// checkpoint to the replacement.
    ///
    /// Fails with [`MembershipError::SparesExhausted`] when the pool is
    /// empty (the node is still marked dead — the verdict stands even when
    /// it cannot be healed) and [`MembershipError::NotAssigned`] when the
    /// node holds no slot.
    pub fn substitute(&mut self, dead_node: NodeId) -> Result<(usize, NodeId), MembershipError> {
        let slot = self
            .slot_of_node(dead_node)
            .ok_or(MembershipError::NotAssigned { node: dead_node })?;
        let Some(replacement) = self.spares.pop_front() else {
            self.dead.push(dead_node);
            return Err(MembershipError::SparesExhausted { dead_node });
        };
        self.dead.push(dead_node);
        self.assignment[slot] = replacement;
        self.epoch += 1;
        Ok((slot, replacement))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_view_assigns_identity_and_parks_spares() {
        let view = MembershipView::new(4, 2);
        assert_eq!(view.slots(), 4);
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.assignment(), &[0, 1, 2, 3]);
        assert_eq!(view.spares_remaining(), 2);
        assert_eq!(view.total_nodes(), 6);
        assert_eq!(view.slot_of_node(3), Some(3));
        assert_eq!(view.slot_of_node(4), None, "spares hold no slot");
    }

    #[test]
    fn substitution_promotes_lowest_spare_and_bumps_epoch() {
        let mut view = MembershipView::new(4, 2);
        let (slot, replacement) = view.substitute(2).expect("a spare is available");
        assert_eq!((slot, replacement), (2, 4));
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.assignment(), &[0, 1, 4, 3]);
        assert!(view.is_dead(2));
        assert_eq!(view.spares_remaining(), 1);
        assert_eq!(view.slot_of_node(4), Some(2));
        // The dead node cannot be substituted twice.
        assert_eq!(
            view.substitute(2),
            Err(MembershipError::NotAssigned { node: 2 })
        );
    }

    #[test]
    fn exhausted_pool_reports_typed_error_and_keeps_the_verdict() {
        let mut view = MembershipView::new(2, 1);
        view.substitute(0).expect("first death is healed");
        let err = view.substitute(1).expect_err("pool is now empty");
        assert_eq!(err, MembershipError::SparesExhausted { dead_node: 1 });
        assert!(view.is_dead(1), "the verdict stands even unhealed");
        assert_eq!(view.epoch(), 1, "no promotion, no epoch bump");
    }
}
