//! Agent configuration and the standard aggregation programs.

use std::ops::Deref;
use std::sync::Arc;

use simnet::SimDuration;

use crate::agg::{parse_program, AggProgram};

/// A named aggregation program, carried as source text (mobile code).
///
/// A handle on one immutable [`AggSource`]: the source is parsed once, in
/// [`AggSpec::new`], and every clone — in particular the [`Config`] clone a
/// deployment hands each agent — shares the name, the text and the compiled
/// program instead of copying two strings and re-parsing per agent.
#[derive(Debug, Clone)]
pub struct AggSpec(Arc<AggSource>);

/// What an [`AggSpec`] points at; read through the spec (`spec.program`).
#[derive(Debug)]
pub struct AggSource {
    /// Installation name (unique per deployment).
    pub name: String,
    /// Program source, e.g. `SELECT MIN(load) AS load`.
    pub program: String,
    /// `None` when `program` does not parse: agents skip such a spec, as
    /// they skip malformed mobile code.
    compiled: Option<Arc<AggProgram>>,
}

impl AggSpec {
    /// Creates a named program, compiling it.
    pub fn new(name: impl Into<String>, program: impl Into<String>) -> Self {
        let program = program.into();
        let compiled = parse_program(&program).ok().map(Arc::new);
        AggSpec(Arc::new(AggSource { name: name.into(), program, compiled }))
    }

    /// The compiled program, shared by every clone of this spec.
    pub fn compiled(&self) -> Option<&Arc<AggProgram>> {
        self.0.compiled.as_ref()
    }
}

impl Deref for AggSpec {
    type Target = AggSource;

    fn deref(&self) -> &AggSource {
        &self.0
    }
}

/// Static configuration shared by every agent of a deployment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Zone branching factor (paper suggests 64).
    pub branching: u16,
    /// Gossip round period per agent.
    pub gossip_interval: SimDuration,
    /// Hard staleness bound: rows issued longer ago than this are evicted
    /// and refused in merges regardless of their row timeout. Primary
    /// failure detection is each row's own timeout, adapted to its
    /// heartbeat cadence; the TTL is the backstop for rows whose update
    /// cadence was never observed.
    pub row_ttl: SimDuration,
    /// Representatives elected per zone (`k` of `REPSEL`).
    pub reps_per_zone: usize,
    /// Aggregation programs installed from configuration. Dynamic programs
    /// can be added at runtime via [`crate::Agent::install_aggregation`].
    pub aggregations: Vec<AggSpec>,
    /// How many random global contacts each agent keeps for bootstrap.
    pub contact_fanout: usize,
    /// Selects nothing: every agent sends the one gossip digest
    /// (content-hashed entries for every held row, stamps taken for values
    /// already held, refresh records instead of unchanged rows). The field
    /// stays because existing configurations, the benchmark's among them,
    /// still write it; nothing reads it.
    pub delta_gossip: bool,
}

impl Config {
    /// The standard configuration: the core management aggregation
    /// (representative election, load, membership count) at the paper's
    /// parameters.
    pub fn standard() -> Self {
        Config::with_reps(2)
    }

    /// Standard configuration with `k` representatives per zone.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_reps(k: usize) -> Self {
        assert!(k > 0, "need at least one representative per zone");
        Config {
            branching: crate::zone::DEFAULT_BRANCHING,
            gossip_interval: SimDuration::from_secs(2),
            row_ttl: SimDuration::from_secs(30),
            reps_per_zone: k,
            aggregations: vec![AggSpec::new("core", Self::core_program(k))],
            contact_fanout: 3,
            delta_gossip: false,
        }
    }

    /// The tuning of every row timeout of a deployment's agents. A row is
    /// suspect once it has been silent for its mean heartbeat interval plus
    /// 5.226 deviations (where the φ-accrual detector this replaced reached
    /// φ = 8); both are estimated per row from its own heartbeats. Until
    /// the first interval is observed the mean is two gossip periods, and
    /// the deviation is never taken below one gossip period (nor below a
    /// quarter of the mean): generous, so multi-hop propagation jitter does
    /// not read as failure, while a genuinely silent row is suspected
    /// within a few rounds instead of a fixed multi-round TTL.
    pub(crate) fn row_timeout(&self) -> RowTimeout {
        RowTimeout { first_interval: self.gossip_interval * 2, min_deviation: self.gossip_interval }
    }

    /// Source of the core management program for `k` representatives.
    pub fn core_program(k: usize) -> String {
        format!(
            "SELECT REPSEL({k}, load, reps) AS reps, MIN(load) AS load, \
             SUM(nmembers) AS nmembers"
        )
    }
}

/// The tuning of an agent's row timeouts, derived from the gossip period
/// by [`Config::row_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowTimeout {
    /// Assumed heartbeat interval until a row's first one is observed.
    pub first_interval: SimDuration,
    /// Deviation floor, so a metronomically regular row (simulated gossip
    /// can be exactly periodic) is not suspected the microsecond it slips.
    /// The effective floor is the larger of this and a quarter of the
    /// row's mean interval, keeping tolerance proportional to cadence.
    pub min_deviation: SimDuration,
}

impl Default for Config {
    fn default() -> Self {
        Config::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_programs_compile() {
        let c = Config::standard();
        for spec in &c.aggregations {
            parse_program(&spec.program).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(spec.compiled().is_some());
        }
        assert_eq!(c.branching, 64);
        assert_eq!(c.reps_per_zone, 2);
    }

    #[test]
    fn with_reps_parameterizes_core_program() {
        let c = Config::with_reps(3);
        assert!(c.aggregations[0].program.contains("REPSEL(3"));
    }

    #[test]
    fn cloned_config_shares_compiled_programs() {
        let c = Config::standard();
        let d = c.clone();
        let (a, b) = (&c.aggregations[0], &d.aggregations[0]);
        assert!(Arc::ptr_eq(a.compiled().unwrap(), b.compiled().unwrap()));
        assert!(std::ptr::eq(a.program.as_ptr(), b.program.as_ptr()), "source text is shared too");
        assert!(AggSpec::new("bad", "SELEKT").compiled().is_none(), "unparsable: kept, skipped");
    }

    #[test]
    #[should_panic(expected = "at least one representative")]
    fn zero_reps_rejected() {
        Config::with_reps(0);
    }
}
