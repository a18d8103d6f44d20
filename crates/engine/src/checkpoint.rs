//! Cluster checkpointing: snapshot and restore of all keyed state and
//! routing tables.
//!
//! Paper §3.4 delegates crash recovery to the streaming engine ("If a
//! POI crashes, the guarantees are the ones provided by the streaming
//! engine and are not impacted by state migration"). This module is
//! that engine mechanism for the simulator: a [`ClusterCheckpoint`]
//! captures every instance's keyed state plus the currently installed
//! fields routers; [`Simulation::restore`] rolls a deployment back to
//! it, dropping in-flight tuples — the at-most-once behaviour of an
//! unacked Storm topology after a crash.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::key::Key;
use crate::operator::StateValue;
use crate::router::KeyRouter;
use crate::sim::Simulation;
use crate::topology::EdgeId;

/// A point-in-time snapshot of a [`Simulation`]'s recoverable state.
#[derive(Clone)]
pub struct ClusterCheckpoint {
    pub(crate) window_index: u64,
    pub(crate) states: Vec<HashMap<Key, StateValue>>,
    pub(crate) routers: Vec<Vec<(EdgeId, Arc<dyn KeyRouter>)>>,
}

impl fmt::Debug for ClusterCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterCheckpoint")
            .field("window_index", &self.window_index)
            .field("instances", &self.states.len())
            .field(
                "keys",
                &self.states.iter().map(HashMap::len).sum::<usize>(),
            )
            .finish()
    }
}

impl ClusterCheckpoint {
    /// Window index at which the snapshot was taken.
    #[must_use]
    pub fn window_index(&self) -> u64 {
        self.window_index
    }

    /// Total keys captured across all instances.
    #[must_use]
    pub fn total_keys(&self) -> usize {
        self.states.iter().map(HashMap::len).sum()
    }

    /// Deterministic fingerprint of the captured routing tables: for
    /// every instance and every captured fields edge, where keys
    /// `0..keys` would route among `parallelism` destinations. Two
    /// checkpoints with equal fingerprints route identically — the
    /// comparison tests use to verify an aborted wave reverted every
    /// table.
    #[must_use]
    pub fn router_fingerprint(&self, keys: u64, parallelism: usize) -> Vec<Vec<(EdgeId, Vec<u32>)>> {
        self.routers
            .iter()
            .map(|per_poi| {
                per_poi
                    .iter()
                    .map(|(edge, router)| {
                        (
                            *edge,
                            (0..keys)
                                .map(|k| router.route(Key::new(k), parallelism))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

/// Error returned by [`Simulation::checkpoint`] and
/// [`Simulation::restore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// A reconfiguration wave or pending migration is in flight;
    /// snapshotting mid-migration would capture a split state.
    ReconfigurationInFlight,
    /// The checkpoint's shape does not match this deployment.
    ShapeMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ReconfigurationInFlight => {
                f.write_str("a reconfiguration or state migration is in flight")
            }
            Self::ShapeMismatch => f.write_str("checkpoint does not match this topology"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Simulation {
    /// Captures every instance's keyed state and the currently
    /// installed fields routers.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ReconfigurationInFlight`] while a
    /// wave is propagating or key state is still migrating — a
    /// consistent cut requires quiescent ownership.
    pub fn checkpoint(&self) -> Result<ClusterCheckpoint, CheckpointError> {
        if self.reconfig_active() || self.pending_migrations() > 0 {
            return Err(CheckpointError::ReconfigurationInFlight);
        }
        Ok(ClusterCheckpoint {
            window_index: self.window_index(),
            states: self.pois.iter().map(|p| p.core.state.clone()).collect(),
            routers: self.snapshot_routers(),
        })
    }

    /// Every instance's currently installed fields routers (also the
    /// pre-wave snapshot a rolled-back wave restores).
    pub(crate) fn snapshot_routers(&self) -> Vec<Vec<(EdgeId, Arc<dyn KeyRouter>)>> {
        self.pois
            .iter()
            .map(|p| p.routes.routers().collect())
            .collect()
    }

    /// Rolls the deployment back to `checkpoint`: keyed state and
    /// routing tables are restored, and everything volatile —
    /// input queues, network backlogs, buffered tuples, straggler
    /// forwarding maps — is dropped, exactly as a cluster-wide crash
    /// restart would. Metrics and the window clock keep running
    /// forward.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ShapeMismatch`] if the checkpoint
    /// was taken on a different deployment, or
    /// [`CheckpointError::ReconfigurationInFlight`] if called while a
    /// wave is active (cancel semantics are not modeled).
    pub fn restore(&mut self, checkpoint: &ClusterCheckpoint) -> Result<(), CheckpointError> {
        if self.reconfig_active() {
            return Err(CheckpointError::ReconfigurationInFlight);
        }
        if checkpoint.states.len() != self.pois.len() {
            return Err(CheckpointError::ShapeMismatch);
        }
        for (poi, routers) in self.pois.iter().zip(&checkpoint.routers) {
            let edges = routers.iter().map(|(edge, _)| *edge);
            if !poi.routes.routers().map(|(e, _)| e).eq(edges) {
                return Err(CheckpointError::ShapeMismatch);
            }
        }

        let mut dropped = 0i64;
        for (poi, (state, routers)) in self
            .pois
            .iter_mut()
            .zip(checkpoint.states.iter().zip(&checkpoint.routers))
        {
            dropped += poi.input.len() as i64;
            dropped += poi
                .wave
                .reset()
                .values()
                .map(|b| b.len() as i64)
                .sum::<i64>();
            poi.input.clear();
            poi.core.state = state.clone();
            for (edge, router) in routers {
                poi.routes.set_router(*edge, Arc::clone(router));
            }
        }
        for server in &mut self.servers {
            dropped += server
                .backlog
                .iter()
                .filter(|m| matches!(m.payload, crate::sim::NetPayload::Data { .. }))
                .count() as i64;
            server.backlog.clear();
        }
        self.control_queue.clear();
        self.in_flight -= dropped;
        debug_assert!(self.in_flight >= 0, "in-flight accounting underflow");
        Ok(())
    }
}
