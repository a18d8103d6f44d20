//! Topology description: operators, parallelism, edges and groupings.

use std::fmt;
use std::sync::Arc;

use crate::operator::OperatorFactory;
use crate::router::{HashRouter, KeyRouter};
use crate::tuple::{Tuple, MAX_FIELDS};

/// Identifier of a processing operator (PO) within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoId(pub(crate) usize);

impl PoId {
    /// Index of the operator in the topology.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an edge (stream) within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) usize);

impl EdgeId {
    /// Index of the edge in the topology.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a deployed processing operator instance (POI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoiId(pub(crate) usize);

impl PoiId {
    /// Global index of the instance across the deployment.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a physical server in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

/// How an edge splits a stream between the instances of the recipient
/// operator (paper §2.2).
#[derive(Clone)]
pub enum Grouping {
    /// Round-robin over all instances; stateless recipients only.
    Shuffle,
    /// Prefer an instance on the sender's server, else shuffle;
    /// stateless recipients only.
    LocalOrShuffle,
    /// Key-based routing on tuple field `field` via `router`;
    /// required for stateful recipients.
    Fields {
        /// Index of the tuple field carrying the routing key.
        field: usize,
        /// Initial routing policy (each deployed sender instance gets
        /// its own replaceable copy).
        router: Arc<dyn KeyRouter>,
    },
}

impl Grouping {
    /// Fields grouping on `field` with the default hash router.
    #[must_use]
    pub fn fields(field: usize) -> Self {
        Grouping::Fields {
            field,
            router: Arc::new(HashRouter),
        }
    }

    /// Fields grouping on `field` with an explicit router.
    #[must_use]
    pub fn fields_with(field: usize, router: Arc<dyn KeyRouter>) -> Self {
        Grouping::Fields { field, router }
    }

    /// Returns the routed field index for fields groupings.
    #[must_use]
    pub fn field(&self) -> Option<usize> {
        match self {
            Grouping::Fields { field, .. } => Some(*field),
            _ => None,
        }
    }
}

impl fmt::Debug for Grouping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Grouping::Shuffle => f.write_str("Shuffle"),
            Grouping::LocalOrShuffle => f.write_str("LocalOrShuffle"),
            Grouping::Fields { field, router } => f
                .debug_struct("Fields")
                .field("field", field)
                .field("router", &router.name())
                .finish(),
        }
    }
}

/// A stream connecting two operators.
#[derive(Debug)]
pub struct Edge {
    pub(crate) from: PoId,
    pub(crate) to: PoId,
    pub(crate) grouping: Grouping,
}

impl Edge {
    /// Upstream operator.
    #[must_use]
    pub fn from(&self) -> PoId {
        self.from
    }

    /// Downstream operator.
    #[must_use]
    pub fn to(&self) -> PoId {
        self.to
    }

    /// The edge's grouping policy.
    #[must_use]
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }
}

/// Produces the input stream of a source operator instance.
///
/// `None` means the stream is exhausted; the simulator then stops
/// pulling from that instance.
pub trait TupleSource: Send {
    /// Returns the next tuple, or `None` at end of stream.
    fn next_tuple(&mut self) -> Option<Tuple>;
}

impl<F> TupleSource for F
where
    F: FnMut() -> Option<Tuple> + Send,
{
    fn next_tuple(&mut self) -> Option<Tuple> {
        self()
    }
}

/// Factory producing one [`TupleSource`] per source instance (the
/// argument is the instance index).
pub type SourceFactory = Box<dyn Fn(usize) -> Box<dyn TupleSource> + Send + Sync>;

/// Emission policy of a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceRate {
    /// Emit as fast as downstream accepts (throughput experiments).
    Saturate,
    /// Emit at most this many tuples per second per instance.
    PerSecond(f64),
}

pub(crate) enum PoKind {
    Source {
        factory: SourceFactory,
        rate: SourceRate,
    },
    Operator {
        factory: OperatorFactory,
        stateful: bool,
    },
}

impl fmt::Debug for PoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoKind::Source { rate, .. } => write!(f, "Source({rate:?})"),
            PoKind::Operator { stateful, .. } => {
                write!(f, "Operator {{ stateful: {stateful} }}")
            }
        }
    }
}

/// A processing operator declaration.
#[derive(Debug)]
pub struct PoSpec {
    pub(crate) name: String,
    pub(crate) parallelism: usize,
    pub(crate) kind: PoKind,
    pub(crate) cost_per_tuple: Option<f64>,
}

impl PoSpec {
    /// Operator name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of deployed instances.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Whether the operator keeps per-key state.
    #[must_use]
    pub fn is_stateful(&self) -> bool {
        matches!(self.kind, PoKind::Operator { stateful: true, .. })
    }

    /// Whether the operator is a source.
    #[must_use]
    pub fn is_source(&self) -> bool {
        matches!(self.kind, PoKind::Source { .. })
    }
}

/// Errors reported by [`TopologyBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTopologyError {
    /// The operator graph contains a cycle.
    Cycle,
    /// A source operator has an incoming edge.
    SourceHasInput(String),
    /// A fields grouping routes on a field index `>= MAX_FIELDS`.
    FieldOutOfRange(usize),
    /// A stateful operator has no fields-grouped input edge.
    StatefulWithoutFieldsInput(String),
    /// A stateful operator's input edges route on different fields, so
    /// its state key would be ambiguous.
    AmbiguousStateKey(String),
    /// A stateful operator is fed by a non-fields grouping.
    StatefulNonFieldsInput(String),
}

impl fmt::Display for BuildTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Cycle => f.write_str("operator graph contains a cycle"),
            Self::SourceHasInput(name) => {
                write!(f, "source operator {name} has an incoming edge")
            }
            Self::FieldOutOfRange(field) => {
                write!(f, "fields grouping on field {field} >= {MAX_FIELDS}")
            }
            Self::StatefulWithoutFieldsInput(name) => {
                write!(f, "stateful operator {name} has no fields-grouped input")
            }
            Self::AmbiguousStateKey(name) => {
                write!(f, "stateful operator {name} has inputs on different fields")
            }
            Self::StatefulNonFieldsInput(name) => {
                write!(f, "stateful operator {name} has a non-fields input edge")
            }
        }
    }
}

impl std::error::Error for BuildTopologyError {}

/// A validated application DAG.
///
/// # Example
///
/// ```
/// use streamloc_engine::{
///     CountOperator, Grouping, Key, SourceRate, Topology, Tuple,
/// };
///
/// let mut builder = Topology::builder();
/// let source = builder.source("S", 2, SourceRate::Saturate, |_instance| {
///     let mut i = 0u64;
///     Box::new(move || {
///         i += 1;
///         Some(Tuple::new([Key::new(i % 4), Key::new(i % 8)], 0))
///     })
/// });
/// let a = builder.stateful("A", 2, CountOperator::factory());
/// let b = builder.stateful("B", 2, CountOperator::factory());
/// builder.connect(source, a, Grouping::fields(0));
/// builder.connect(a, b, Grouping::fields(1));
/// let topology = builder.build()?;
/// assert_eq!(topology.operator_count(), 3);
/// assert_eq!(topology.total_instances(), 6);
/// # Ok::<(), streamloc_engine::BuildTopologyError>(())
/// ```
#[derive(Debug)]
pub struct Topology {
    pub(crate) pos: Vec<PoSpec>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) in_edges: Vec<Vec<EdgeId>>,
    pub(crate) out_edges: Vec<Vec<EdgeId>>,
    pub(crate) topo_order: Vec<PoId>,
}

impl Topology {
    /// Starts declaring a topology.
    #[must_use]
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of processing operators (including sources).
    #[must_use]
    pub fn operator_count(&self) -> usize {
        self.pos.len()
    }

    /// Total deployed instances across all operators.
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.pos.iter().map(|po| po.parallelism).sum()
    }

    /// The declaration of operator `po`.
    ///
    /// # Panics
    ///
    /// Panics if `po` belongs to another topology.
    #[must_use]
    pub fn po(&self, po: PoId) -> &PoSpec {
        &self.pos[po.0]
    }

    /// Looks an operator up by name.
    #[must_use]
    pub fn po_by_name(&self, name: &str) -> Option<PoId> {
        self.pos.iter().position(|po| po.name == name).map(PoId)
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` belongs to another topology.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// The first edge from `from` to `to`, if any.
    #[must_use]
    pub fn edge_between(&self, from: PoId, to: PoId) -> Option<EdgeId> {
        self.edges
            .iter()
            .position(|e| e.from == from && e.to == to)
            .map(EdgeId)
    }

    /// Incoming edges of `po`.
    #[must_use]
    pub fn in_edges(&self, po: PoId) -> &[EdgeId] {
        &self.in_edges[po.0]
    }

    /// Outgoing edges of `po`.
    #[must_use]
    pub fn out_edges(&self, po: PoId) -> &[EdgeId] {
        &self.out_edges[po.0]
    }

    /// Operators in topological order (sources first).
    #[must_use]
    pub fn topo_order(&self) -> &[PoId] {
        &self.topo_order
    }

    /// Operators with no outgoing edge (whose processed tuples count
    /// as application throughput).
    pub fn sinks(&self) -> impl Iterator<Item = PoId> + '_ {
        (0..self.pos.len())
            .map(PoId)
            .filter(|&po| self.out_edges[po.0].is_empty())
    }

    /// Global indices of `po`'s instances: both runtimes number them
    /// operator by operator, in declaration order.
    pub(crate) fn instances(&self, po: PoId) -> std::ops::Range<usize> {
        let base = self.pos[..po.0].iter().map(|p| p.parallelism).sum();
        base..base + self.pos[po.0].parallelism
    }

    /// `instances(po).start` of every operator, in operator order.
    pub(crate) fn instance_bases(&self) -> Vec<usize> {
        let pos = 0..self.pos.len();
        pos.map(|po| self.instances(PoId(po)).start).collect()
    }

    /// The instances of every successor of `po`, in out-edge order:
    /// where each of its instances forwards ⑤ and `Eos`.
    pub(crate) fn successor_instances(&self, po: PoId) -> Vec<usize> {
        let out = self.out_edges[po.0].iter();
        out.flat_map(|e| self.instances(self.edges[e.0].to))
            .collect()
    }

    /// The instances of every operator without input: where a wave's
    /// first ⑤ goes.
    pub(crate) fn root_instances(&self) -> Vec<usize> {
        let roots = (0..self.pos.len()).filter(|&po| self.in_edges[po].is_empty());
        roots.flat_map(|po| self.instances(PoId(po))).collect()
    }

    /// Instances of all predecessor operators of `po`: the ⑤
    /// propagates (and live `Eos` tokens) each of its instances awaits.
    pub(crate) fn predecessor_instances(&self, po: PoId) -> usize {
        self.in_edges[po.0]
            .iter()
            .map(|e| self.pos[self.edges[e.0].from.0].parallelism)
            .sum()
    }

    /// The field a stateful operator's state is keyed on (the field of
    /// its fields-grouped input edges); `None` for sources and
    /// stateless operators without fields input.
    #[must_use]
    pub fn state_field(&self, po: PoId) -> Option<usize> {
        self.in_edges[po.0]
            .iter()
            .find_map(|&e| self.edges[e.0].grouping.field())
    }
}

/// Incremental builder for [`Topology`].
#[derive(Default)]
pub struct TopologyBuilder {
    pos: Vec<PoSpec>,
    edges: Vec<Edge>,
}

impl fmt::Debug for TopologyBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TopologyBuilder")
            .field("operators", &self.pos.len())
            .field("edges", &self.edges.len())
            .finish()
    }
}

impl TopologyBuilder {
    /// Declares a source operator with `parallelism` instances; `make`
    /// builds the tuple source of each instance.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0`.
    pub fn source<F>(
        &mut self,
        name: &str,
        parallelism: usize,
        rate: SourceRate,
        make: F,
    ) -> PoId
    where
        F: Fn(usize) -> Box<dyn TupleSource> + Send + Sync + 'static,
    {
        assert!(parallelism > 0, "parallelism must be positive");
        self.pos.push(PoSpec {
            name: name.to_owned(),
            parallelism,
            kind: PoKind::Source {
                factory: Box::new(make),
                rate,
            },
            cost_per_tuple: None,
        });
        PoId(self.pos.len() - 1)
    }

    /// Declares a stateful operator.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0`.
    pub fn stateful(&mut self, name: &str, parallelism: usize, factory: OperatorFactory) -> PoId {
        self.add_operator(name, parallelism, factory, true)
    }

    /// Declares a stateless operator.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism == 0`.
    pub fn stateless(&mut self, name: &str, parallelism: usize, factory: OperatorFactory) -> PoId {
        self.add_operator(name, parallelism, factory, false)
    }

    fn add_operator(
        &mut self,
        name: &str,
        parallelism: usize,
        factory: OperatorFactory,
        stateful: bool,
    ) -> PoId {
        assert!(parallelism > 0, "parallelism must be positive");
        self.pos.push(PoSpec {
            name: name.to_owned(),
            parallelism,
            kind: PoKind::Operator { factory, stateful },
            cost_per_tuple: None,
        });
        PoId(self.pos.len() - 1)
    }

    /// Overrides the per-tuple CPU cost (seconds) of `po`; by default
    /// the cluster-wide cost applies.
    ///
    /// # Panics
    ///
    /// Panics if `po` was not declared by this builder.
    pub fn set_cost_per_tuple(&mut self, po: PoId, seconds: f64) -> &mut Self {
        self.pos[po.0].cost_per_tuple = Some(seconds);
        self
    }

    /// Connects `from` to `to` with `grouping`.
    ///
    /// # Panics
    ///
    /// Panics if either operator was not declared by this builder.
    pub fn connect(&mut self, from: PoId, to: PoId, grouping: Grouping) -> EdgeId {
        assert!(from.0 < self.pos.len(), "unknown upstream operator");
        assert!(to.0 < self.pos.len(), "unknown downstream operator");
        self.edges.push(Edge {
            from,
            to,
            grouping,
        });
        EdgeId(self.edges.len() - 1)
    }

    /// Validates and finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildTopologyError`] if the graph is cyclic, a
    /// source has inputs, a fields grouping routes on an out-of-range
    /// field, or a stateful operator's state key would be undefined or
    /// ambiguous.
    pub fn build(self) -> Result<Topology, BuildTopologyError> {
        let n = self.pos.len();
        let mut in_edges = vec![Vec::new(); n];
        let mut out_edges = vec![Vec::new(); n];
        for (i, edge) in self.edges.iter().enumerate() {
            if let Grouping::Fields { field, .. } = &edge.grouping {
                if *field >= MAX_FIELDS {
                    return Err(BuildTopologyError::FieldOutOfRange(*field));
                }
            }
            in_edges[edge.to.0].push(EdgeId(i));
            out_edges[edge.from.0].push(EdgeId(i));
        }

        for (i, po) in self.pos.iter().enumerate() {
            match &po.kind {
                PoKind::Source { .. } => {
                    if !in_edges[i].is_empty() {
                        return Err(BuildTopologyError::SourceHasInput(po.name.clone()));
                    }
                }
                PoKind::Operator { stateful: true, .. } => {
                    let mut fields: Vec<usize> = Vec::new();
                    for &e in &in_edges[i] {
                        match &self.edges[e.0].grouping {
                            Grouping::Fields { field, .. } => fields.push(*field),
                            _ => {
                                return Err(BuildTopologyError::StatefulNonFieldsInput(
                                    po.name.clone(),
                                ))
                            }
                        }
                    }
                    if fields.is_empty() {
                        return Err(BuildTopologyError::StatefulWithoutFieldsInput(
                            po.name.clone(),
                        ));
                    }
                    if fields.windows(2).any(|w| w[0] != w[1]) {
                        return Err(BuildTopologyError::AmbiguousStateKey(po.name.clone()));
                    }
                }
                PoKind::Operator { .. } => {}
            }
        }

        // Kahn's algorithm for a topological order.
        let mut indegree: Vec<usize> = in_edges.iter().map(Vec::len).collect();
        let mut queue: Vec<PoId> = (0..n).filter(|&i| indegree[i] == 0).map(PoId).collect();
        let mut topo_order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let po = queue[head];
            head += 1;
            topo_order.push(po);
            for &e in &out_edges[po.0] {
                let to = self.edges[e.0].to.0;
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    queue.push(PoId(to));
                }
            }
        }
        if topo_order.len() != n {
            return Err(BuildTopologyError::Cycle);
        }

        Ok(Topology {
            pos: self.pos,
            edges: self.edges,
            in_edges,
            out_edges,
            topo_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::CountOperator;
    use crate::operator::IdentityOperator;
    use crate::Key;

    fn dummy_source(builder: &mut TopologyBuilder, parallelism: usize) -> PoId {
        builder.source("S", parallelism, SourceRate::Saturate, |_| {
            Box::new(|| Some(Tuple::new([Key::new(0), Key::new(0)], 0)))
        })
    }

    #[test]
    fn builds_paper_chain() {
        let mut b = Topology::builder();
        let s = dummy_source(&mut b, 3);
        let a = b.stateful("A", 3, CountOperator::factory());
        let c = b.stateful("B", 3, CountOperator::factory());
        b.connect(s, a, Grouping::fields(0));
        b.connect(a, c, Grouping::fields(1));
        let t = b.build().unwrap();
        assert_eq!(t.operator_count(), 3);
        assert_eq!(t.total_instances(), 9);
        assert_eq!(t.topo_order(), &[PoId(0), PoId(1), PoId(2)]);
        assert_eq!(t.sinks().collect::<Vec<_>>(), vec![PoId(2)]);
        assert_eq!(t.state_field(PoId(1)), Some(0));
        assert_eq!(t.state_field(PoId(2)), Some(1));
        assert_eq!(t.po_by_name("A"), Some(PoId(1)));
        assert!(t.po(PoId(1)).is_stateful());
        assert!(t.po(PoId(0)).is_source());
    }

    #[test]
    fn rejects_cycle() {
        let mut b = Topology::builder();
        let a = b.stateless("A", 1, IdentityOperator::factory());
        let c = b.stateless("B", 1, IdentityOperator::factory());
        b.connect(a, c, Grouping::Shuffle);
        b.connect(c, a, Grouping::Shuffle);
        assert_eq!(b.build().unwrap_err(), BuildTopologyError::Cycle);
    }

    #[test]
    fn rejects_source_with_input() {
        let mut b = Topology::builder();
        let s = dummy_source(&mut b, 1);
        let a = b.stateless("A", 1, IdentityOperator::factory());
        b.connect(s, a, Grouping::Shuffle);
        b.connect(a, s, Grouping::Shuffle);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildTopologyError::SourceHasInput(_)
        ));
    }

    #[test]
    fn rejects_stateful_without_fields() {
        let mut b = Topology::builder();
        let s = dummy_source(&mut b, 1);
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::Shuffle);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildTopologyError::StatefulNonFieldsInput(_)
        ));
    }

    #[test]
    fn rejects_ambiguous_state_key() {
        let mut b = Topology::builder();
        let s1 = dummy_source(&mut b, 1);
        let mut b2 = b;
        let s2 = b2.source("S2", 1, SourceRate::Saturate, |_| {
            Box::new(|| None::<Tuple>)
        });
        let a = b2.stateful("A", 1, CountOperator::factory());
        b2.connect(s1, a, Grouping::fields(0));
        b2.connect(s2, a, Grouping::fields(1));
        assert!(matches!(
            b2.build().unwrap_err(),
            BuildTopologyError::AmbiguousStateKey(_)
        ));
    }

    #[test]
    fn rejects_out_of_range_field() {
        let mut b = Topology::builder();
        let s = dummy_source(&mut b, 1);
        let a = b.stateful("A", 1, CountOperator::factory());
        b.connect(s, a, Grouping::fields(MAX_FIELDS));
        assert_eq!(
            b.build().unwrap_err(),
            BuildTopologyError::FieldOutOfRange(MAX_FIELDS)
        );
    }

    #[test]
    fn diamond_dag_topo_order() {
        let mut b = Topology::builder();
        let s = dummy_source(&mut b, 1);
        let a = b.stateless("A", 1, IdentityOperator::factory());
        let c = b.stateless("C", 1, IdentityOperator::factory());
        let d = b.stateless("D", 1, IdentityOperator::factory());
        b.connect(s, a, Grouping::Shuffle);
        b.connect(s, c, Grouping::Shuffle);
        b.connect(a, d, Grouping::Shuffle);
        b.connect(c, d, Grouping::Shuffle);
        let t = b.build().unwrap();
        let order = t.topo_order();
        let pos = |po: PoId| order.iter().position(|&x| x == po).unwrap();
        assert!(pos(s) < pos(a));
        assert!(pos(a) < pos(d));
        assert!(pos(c) < pos(d));
        assert_eq!(t.sinks().collect::<Vec<_>>(), vec![d]);
    }
}
