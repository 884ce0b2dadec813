//! Deployment configuration and the paper's two target configurations
//! (§10): technical news (Slashdot, Wired, The Register, News.com) and
//! general news (Reuters, AP, The New York Times).

use astrolabe::AggSpec;
use newsml::PublisherId;

use crate::cache::CachePolicy;

/// How subscriptions are summarized up the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionModel {
    /// The §6 Bloom-filter design: one shared bit array of `bits` bits with
    /// `hashes` hash functions, OR-aggregated as attribute `subs`.
    Bloom {
        /// Bit-array size (the paper suggests "a thousand bits or more").
        bits: usize,
        /// Hash functions per key.
        hashes: u32,
    },
    /// The §7 early-prototype design: one exact category bitmask per
    /// publisher, OR-aggregated as attributes `cats$<publisher>`.
    CategoryMask,
}

impl SubscriptionModel {
    /// The attribute name carrying this model's summary for `publisher`
    /// (mask model) or for everyone (Bloom model).
    pub fn attr_for(&self, publisher: PublisherId) -> String {
        match self {
            SubscriptionModel::Bloom { .. } => "subs".to_owned(),
            SubscriptionModel::CategoryMask => format!("cats${}", publisher.0),
        }
    }
}

/// Full NewsWire deployment configuration: the settings a deployment or
/// an experiment chooses. Every other protocol parameter is a constant of
/// the crate that owns it (DESIGN "Configuration").
#[derive(Debug, Clone)]
pub struct NewsWireConfig {
    /// Underlying Astrolabe parameters (branching, gossip interval, TTL…).
    pub astrolabe: astrolabe::Config,
    /// Subscription summary model.
    pub model: SubscriptionModel,
    /// Representatives used per interested child during forwarding.
    pub redundancy: usize,
    /// End-system cache policy.
    pub cache: CachePolicy,
    /// Acknowledged tree hand-offs: a forwarder arms a timer per `Forward`
    /// it transmits and, absent a `ForwardAck`, retries with exponential
    /// backoff before failing over to another representative. Off restores
    /// the seed's unacknowledged hand-offs (a slow-but-alive representative
    /// silently blackholes its subtree until anti-entropy catches it).
    pub acks: bool,
    /// Log anti-entropy: piggyback per-publisher article-log digests
    /// (`sys$ae:<publisher>` attributes) on gossip rows and pull missing
    /// sequence ranges from the freshest known peer. The periodic recovery:
    /// it closes arbitrarily deep holes (everything missed during a
    /// partition, a joiner's whole backlog), where the named pull only
    /// reaches the last few items of one link.
    pub anti_entropy: bool,
    /// Persist protocol state to simulated stable storage (subscription,
    /// incarnation, article-log coverage, cached items, delivery log) so a
    /// `RestartMode::ColdDurable` restart recovers it instead of rejoining
    /// amnesiac. Off by default: write-behind persistence adds disk traffic
    /// every gossip round, and deployments that only ever freeze-restart
    /// (the legacy fault model) get nothing for it.
    pub durable_state: bool,
    /// State-corruption defenses: structural validation of gossiped zone
    /// rows at ingest, a periodic self-audit that re-derives this node's
    /// own advertisements from ground truth and scrubs rows that cannot be
    /// honest, an epoch fence that refuses log-epoch adoption beyond the
    /// consensus of the node's peers, signature checks on bare items, and
    /// the quarantine of peers whose misbehavior score crosses a threshold
    /// (DESIGN §12). On by default — the defenses are deterministic and
    /// cost one table sweep per few gossip rounds; E17 runs the ablation
    /// with them off.
    pub defenses: bool,
    /// The delta-everything wire protocol: revised envelopes and
    /// repair/reconcile replies carry CDC delta annotations against
    /// baselines the receiver holds, and requests declare held revisions as
    /// [`amcast::BaselineHint`]s. Off by default. A deployment built with
    /// it also gossips row diffs (`astrolabe.delta_gossip`) and counts the
    /// compressed-wire byte lane (`Simulation::set_delta_accounting`);
    /// [`crate::DeploymentBuilder::build`] sets both from this switch.
    pub deltas: bool,
    /// Sybil admission control (DESIGN §15): leaf-zone member rows must
    /// carry a registry-endorsed join ticket (`sys$jt` attribute), rows
    /// without one are refused at gossip ingest and tracked in a bounded
    /// probation set, and brand-new identities are refused outright once
    /// the leaf zone holds its quota of members. Off by default — it adds
    /// a ticket attribute to every member row, so legacy runs stay
    /// byte-identical.
    pub admission: bool,
}

impl NewsWireConfig {
    /// The technical-news configuration: a handful of community-site
    /// publishers, modest subscription space, 1k-bit Bloom array.
    pub fn tech_news() -> Self {
        NewsWireConfig {
            astrolabe: astrolabe::Config::standard(),
            model: SubscriptionModel::Bloom { bits: 1024, hashes: 3 },
            redundancy: 2,
            cache: CachePolicy::default(),
            acks: true,
            anti_entropy: true,
            durable_state: false,
            defenses: true,
            deltas: false,
            admission: false,
        }
    }

    /// The general-news configuration: wire services with richer subject
    /// space, hence a larger Bloom array.
    pub fn global_news() -> Self {
        NewsWireConfig {
            model: SubscriptionModel::Bloom { bits: 4096, hashes: 4 },
            ..NewsWireConfig::tech_news()
        }
    }

    /// The §7 early-prototype configuration (per-publisher category masks).
    pub fn prototype_masks() -> Self {
        NewsWireConfig { model: SubscriptionModel::CategoryMask, ..NewsWireConfig::tech_news() }
    }

    /// The Astrolabe configuration extended with this deployment's
    /// subscription aggregations (one `ORBITS` for the Bloom model, one
    /// `ORINT` per publisher for the mask model).
    pub fn astrolabe_config(&self, publishers: &[PublisherId]) -> astrolabe::Config {
        let mut cfg = self.astrolabe.clone();
        match self.model {
            SubscriptionModel::Bloom { .. } => {
                cfg.aggregations.push(AggSpec::new("subs", "SELECT ORBITS(subs) AS subs"));
            }
            SubscriptionModel::CategoryMask => {
                for p in publishers {
                    let attr = self.model.attr_for(*p);
                    cfg.aggregations.push(AggSpec::new(
                        attr.clone(),
                        format!("SELECT ORINT({attr}) AS {attr}"),
                    ));
                }
            }
        }
        cfg
    }
}

impl Default for NewsWireConfig {
    fn default() -> Self {
        NewsWireConfig::tech_news()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_expected() {
        let tech = NewsWireConfig::tech_news();
        let global = NewsWireConfig::global_news();
        assert_eq!(tech.model, SubscriptionModel::Bloom { bits: 1024, hashes: 3 });
        assert_eq!(global.model, SubscriptionModel::Bloom { bits: 4096, hashes: 4 });
    }

    #[test]
    fn bloom_aggregation_added() {
        let cfg = NewsWireConfig::tech_news().astrolabe_config(&[PublisherId(0)]);
        assert!(cfg.aggregations.iter().any(|a| a.program.contains("ORBITS(subs)")));
    }

    #[test]
    fn mask_aggregations_per_publisher() {
        let cfg =
            NewsWireConfig::prototype_masks().astrolabe_config(&[PublisherId(0), PublisherId(3)]);
        assert!(cfg.aggregations.iter().any(|a| a.program.contains("ORINT(cats$0)")));
        assert!(cfg.aggregations.iter().any(|a| a.program.contains("ORINT(cats$3)")));
        // All generated programs must compile.
        for a in &cfg.aggregations {
            astrolabe::parse_program(&a.program).unwrap();
        }
    }

    #[test]
    fn attr_names() {
        let bloom = SubscriptionModel::Bloom { bits: 8, hashes: 1 };
        assert_eq!(bloom.attr_for(PublisherId(7)), "subs");
        assert_eq!(SubscriptionModel::CategoryMask.attr_for(PublisherId(7)), "cats$7");
    }
}
