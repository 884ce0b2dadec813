//! The experiment suite (E1–E21, A1). Each module reproduces one
//! quantitative claim of the paper or of the engineering around it;
//! DESIGN.md §3 is the index, EXPERIMENTS.md records paper-vs-measured.

pub mod a01_models;
pub mod e01_latency;
pub mod e02_publisher_load;
pub mod e03_redundancy;
pub mod e04_overload;
pub mod e05_bloom;
pub mod e06_convergence;
pub mod e07_robustness;
pub mod e08_bimodal;
pub mod e09_scoped;
pub mod e10_queues;
pub mod e11_repair;
pub mod e12_gossip_cost;
pub mod e13_chaos;
pub mod e14_partition;
pub mod e16_recovery;
pub mod e17_adversary;
pub mod e18_byzantine;
pub mod e19_scale;
pub mod e20_wire;
pub mod e21_trust_rotation;

pub(crate) mod support {
    //! Shared deployment builders for the experiments.

    use newsml::{Category, PublisherId, PublisherProfile};
    use newswire::{Deployment, DeploymentBuilder, NewsWireConfig, PublisherSpec};

    /// A standard single-publisher NewsWire deployment for scale sweeps.
    pub fn newswire_deployment(n: u32, branching: u16, seed: u64) -> Deployment {
        let mut profile = PublisherProfile::slashdot(PublisherId(0));
        profile.categories =
            vec![Category::Technology, Category::Science, Category::World, Category::Business];
        DeploymentBuilder::new(n, seed)
            .branching(branching)
            .config(NewsWireConfig::tech_news())
            .publisher(PublisherSpec::global(profile))
            .cats_per_subscriber(2)
            .build()
    }

    /// A test item from publisher 0 hitting the Technology interest set.
    pub fn tech_item(seq: u64) -> newsml::NewsItem {
        newsml::NewsItem::builder(PublisherId(0), seq)
            .headline(format!("story {seq}"))
            .category(Category::Technology)
            .body_len(1_200)
            .build()
    }

    /// Convergence time heuristic: deeper trees need a little longer.
    pub fn settle_secs(n: u32) -> u64 {
        match n {
            0..=2_000 => 60,
            2_001..=20_000 => 90,
            _ => 120,
        }
    }

    /// Drains the simulation's telemetry into
    /// `$NEWSWIRE_TELEMETRY_DIR/<label>.json` when that variable is set
    /// (the nightly CI uploads the files as artifacts). A no-op otherwise.
    /// Draining resets the registry, so call it after the experiment has
    /// read every counter it needs.
    pub fn dump_telemetry<N: simnet::Node>(label: &str, sim: &mut simnet::Simulation<N>) {
        let Ok(dir) = std::env::var("NEWSWIRE_TELEMETRY_DIR") else { return };
        if dir.is_empty() {
            return;
        }
        let json = sim.drain_telemetry().to_json();
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(std::path::Path::new(&dir).join(format!("{label}.json")), json);
    }
}
