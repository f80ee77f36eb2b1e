//! The Gradient Decomposition method (Secs. III–V of the paper).
//!
//! * [`passes`] — the forward/backward accumulated-gradient passes of Fig. 4,
//!   expressed as per-rank operations on the message-passing runtime, and the
//!   static plan that restricts them to the cells that can carry gradient.
//! * [`solver`] — Algorithm 1: per-probe gradient computation, delayed
//!   accumulation with period `T`, asynchronously pipelined passes, tile
//!   updates and stitching.

pub mod passes;
pub mod solver;
