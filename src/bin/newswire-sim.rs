//! `newswire-sim` — the user-facing control application (paper §10: "a full
//! user control application in the same style as many of the current file
//! sharing applications").
//!
//! Drives simulated NewsWire deployments from the command line:
//!
//! ```text
//! newswire-sim run --subscribers 300 --items 10 --report
//! newswire-sim run --subscribers 500 --wan 0.02 --model masks --seed 7
//! newswire-sim trace --hours 2 --subscribers 200 --report
//! newswire-sim trace-gen --days 1 --format nitf | head
//! newswire-sim redundancy --polls 1,4,24
//! newswire-sim --help
//! ```

use std::fmt;
use std::process::ExitCode;

use newsml::{Category, NewsItem, PublisherId, PublisherProfile, TraceGenerator};
use newswire::{DeploymentBuilder, NewsWireConfig, PublisherSpec, SubscriptionModel};
use obs::ctr;
use simnet::{fork, SimDuration};

const DAY_US: u64 = 86_400_000_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Command::parse(&args) {
        Ok(Command::Help) => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Ok(Command::Run(opts)) => {
            run_items(&opts);
            ExitCode::SUCCESS
        }
        Ok(Command::Trace(opts)) => {
            run_trace(&opts);
            ExitCode::SUCCESS
        }
        Ok(Command::TraceGen { days, format, seed }) => {
            trace_gen(days, format, seed);
            ExitCode::SUCCESS
        }
        Ok(Command::Redundancy { polls }) => {
            redundancy(&polls);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("newswire-sim: {e}\n\n{HELP}");
            ExitCode::from(2)
        }
    }
}

const HELP: &str = "\
newswire-sim — simulated NewsWire deployments from the command line

USAGE:
  newswire-sim run [OPTIONS]         publish test items into a deployment
  newswire-sim trace [OPTIONS]       publish a generated news trace
  newswire-sim trace-gen [OPTIONS]   print a generated trace (no simulation)
  newswire-sim redundancy [OPTIONS]  the pull-model redundancy table
  newswire-sim --help

OPTIONS (run/trace):
  --subscribers N    subscriber count              [default: 200]
  --branching B      zone branching factor          [default: 16]
  --seed S           deterministic seed             [default: 42]
  --items K          items to publish (run only)    [default: 10]
  --hours H          trace length (trace only)      [default: 1]
  --wan P            WAN latency model + loss P     [default: off]
  --model M          bloom | masks                  [default: bloom]
  --report           print per-item delivery detail

OPTIONS (trace-gen):
  --days D           trace length in days           [default: 1]
  --format F         nitf | newsml | summary        [default: summary]
  --seed S           deterministic seed             [default: 42]

OPTIONS (redundancy):
  --polls LIST       comma-separated polls/day      [default: 1,2,4,8,24,48]
";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Run(RunOpts),
    Trace(RunOpts),
    TraceGen { days: u64, format: TraceFormat, seed: u64 },
    Redundancy { polls: Vec<u64> },
}

#[derive(Debug, PartialEq, Clone)]
struct RunOpts {
    subscribers: u32,
    branching: u16,
    seed: u64,
    items: u64,
    hours: u64,
    wan: Option<f64>,
    model: SubscriptionModel,
    report: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            subscribers: 200,
            branching: 16,
            seed: 42,
            items: 10,
            hours: 1,
            wan: None,
            model: SubscriptionModel::Bloom { bits: 1024, hashes: 3 },
            report: false,
        }
    }
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum TraceFormat {
    Nitf,
    Newsml,
    Summary,
}

#[derive(Debug, PartialEq)]
struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn err(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

impl Command {
    fn parse(args: &[String]) -> Result<Command, UsageError> {
        let mut it = args.iter().peekable();
        let Some(sub) = it.next() else { return Ok(Command::Help) };
        if sub == "--help" || sub == "-h" || sub == "help" {
            return Ok(Command::Help);
        }

        let mut opts = RunOpts::default();
        let mut days = 1u64;
        let mut format = TraceFormat::Summary;
        let mut polls: Vec<u64> = vec![1, 2, 4, 8, 24, 48];

        let take_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                          flag: &str|
         -> Result<String, UsageError> {
            it.next().cloned().ok_or_else(|| err(format!("{flag} needs a value")))
        };

        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--subscribers" => {
                    opts.subscribers = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--subscribers expects a number"))?;
                }
                "--branching" => {
                    let b: u16 = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--branching expects a number"))?;
                    if !(2..=64).contains(&b) {
                        return Err(err("--branching must be between 2 and 64"));
                    }
                    opts.branching = b;
                }
                "--seed" => {
                    opts.seed = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--seed expects a number"))?;
                }
                "--items" => {
                    opts.items = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--items expects a number"))?;
                }
                "--hours" => {
                    opts.hours = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--hours expects a number"))?;
                }
                "--days" => {
                    days = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--days expects a number"))?;
                }
                "--wan" => {
                    let p: f64 = take_value(&mut it, flag)?
                        .parse()
                        .map_err(|_| err("--wan expects a loss probability"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(err("--wan loss must be in [0, 1)"));
                    }
                    opts.wan = Some(p);
                }
                "--model" => match take_value(&mut it, flag)?.as_str() {
                    "bloom" => opts.model = SubscriptionModel::Bloom { bits: 1024, hashes: 3 },
                    "masks" => opts.model = SubscriptionModel::CategoryMask,
                    other => return Err(err(format!("unknown model `{other}`"))),
                },
                "--format" => match take_value(&mut it, flag)?.as_str() {
                    "nitf" => format = TraceFormat::Nitf,
                    "newsml" => format = TraceFormat::Newsml,
                    "summary" => format = TraceFormat::Summary,
                    other => return Err(err(format!("unknown format `{other}`"))),
                },
                "--polls" => {
                    let list = take_value(&mut it, flag)?;
                    polls = list
                        .split(',')
                        .map(|p| p.parse::<u64>().map_err(|_| err("--polls expects numbers")))
                        .collect::<Result<_, _>>()?;
                    if polls.is_empty() || polls.contains(&0) {
                        return Err(err("--polls entries must be positive"));
                    }
                }
                "--report" => opts.report = true,
                other => return Err(err(format!("unknown option `{other}`"))),
            }
        }

        match sub.as_str() {
            "run" => Ok(Command::Run(opts)),
            "trace" => Ok(Command::Trace(opts)),
            "trace-gen" => Ok(Command::TraceGen { days, format, seed: opts.seed }),
            "redundancy" => Ok(Command::Redundancy { polls }),
            other => Err(err(format!("unknown command `{other}`"))),
        }
    }
}

fn build_deployment(opts: &RunOpts) -> newswire::Deployment {
    let mut config = NewsWireConfig::tech_news();
    config.model = opts.model;
    let mut builder = DeploymentBuilder::new(opts.subscribers, opts.seed)
        .branching(opts.branching)
        .config(config)
        .publisher(PublisherSpec::global(PublisherProfile::slashdot(PublisherId(0))))
        .publisher(PublisherSpec::global(PublisherProfile::boutique(
            PublisherId(1),
            "boutique",
            Category::Science,
        )));
    if let Some(p) = opts.wan {
        builder = builder.wan(p);
    }
    builder.build()
}

fn print_summary(d: &newswire::Deployment) {
    println!("deliveries:            {}", d.counter(ctr::NW_DELIVERED));
    println!("duplicates suppressed: {}", d.counter(ctr::NW_DUPLICATES));
    println!("bloom FP deliveries:   {}", d.counter(ctr::NW_BLOOM_FP));
    let mut lat = d.delivery_latency_summary();
    if !lat.is_empty() {
        println!(
            "latency:               p50 {:.2}s  p99 {:.2}s  max {:.2}s",
            lat.quantile(0.5),
            lat.quantile(0.99),
            lat.max()
        );
    }
    let total = d.sim.total_counters();
    println!(
        "network:               {} msgs, {:.1} MB",
        total.msgs_sent,
        total.bytes_sent as f64 / 1e6
    );
}

fn run_items(opts: &RunOpts) {
    println!(
        "deployment: {} subscribers + 2 publishers, branching {}, seed {}",
        opts.subscribers, opts.branching, opts.seed
    );
    let mut d = build_deployment(opts);
    println!("settling 75 simulated seconds…");
    d.settle(75);
    let t0 = d.sim.now();
    let mut items = Vec::new();
    for seq in 0..opts.items {
        let item = NewsItem::builder(PublisherId(0), seq)
            .headline(format!("cli item {seq}"))
            .category(Category::Technology)
            .build();
        d.publish(t0 + SimDuration::from_secs(2 * seq), item.clone());
        items.push(item);
    }
    d.settle(2 * opts.items + 30);
    if opts.report {
        for item in &items {
            println!(
                "  {}  interested {:>4}  delivered {:>4}",
                item.id,
                d.interested_nodes(item).len(),
                d.delivered_nodes(item).len()
            );
        }
    }
    print_summary(&d);
}

fn run_trace(opts: &RunOpts) {
    println!(
        "deployment: {} subscribers + 2 publishers, branching {}, seed {}",
        opts.subscribers, opts.branching, opts.seed
    );
    let mut d = build_deployment(opts);
    println!("settling 75 simulated seconds…");
    d.settle(75);
    let generator = TraceGenerator::new(vec![
        PublisherProfile::slashdot(PublisherId(0)),
        PublisherProfile::boutique(PublisherId(1), "boutique", Category::Science),
    ]);
    let mut rng = fork(opts.seed, 1);
    let horizon_us = opts.hours * 3_600_000_000;
    let events = generator.generate(&mut rng, horizon_us);
    println!("publishing {} items over {} simulated hour(s)…", events.len(), opts.hours);
    let t0 = d.sim.now();
    for ev in &events {
        d.publish(t0 + SimDuration::from_micros(ev.at_us), ev.item.clone());
    }
    d.settle(horizon_us / 1_000_000 + 40);
    if opts.report {
        let wanted: usize = events.iter().map(|e| d.interested_nodes(&e.item).len()).sum();
        let got: usize = events.iter().map(|e| d.delivered_nodes(&e.item).len()).sum();
        println!("ground truth: {got} of {wanted} interested subscriptions delivered");
    }
    print_summary(&d);
}

fn trace_gen(days: u64, format: TraceFormat, seed: u64) {
    let generator = TraceGenerator::new(vec![
        PublisherProfile::slashdot(PublisherId(0)),
        PublisherProfile::reuters(PublisherId(1)),
    ]);
    let mut rng = fork(seed, 2);
    let events = generator.generate(&mut rng, days * DAY_US);
    for ev in &events {
        match format {
            TraceFormat::Nitf => println!("{}", newsml::to_nitf_xml(&ev.item)),
            TraceFormat::Newsml => println!("{}", newsml::to_newsml_xml(&ev.item)),
            TraceFormat::Summary => println!(
                "{:>12}us {} [{}] {}",
                ev.at_us,
                ev.item.id,
                ev.item.categories.first().map(|c| c.name()).unwrap_or("-"),
                ev.item.headline
            ),
        }
    }
    eprintln!("({} items over {days} day(s))", events.len());
}

fn redundancy(polls: &[u64]) {
    let generator = TraceGenerator::new(vec![PublisherProfile::slashdot(PublisherId(0))]);
    let mut rng = fork(3, 3);
    let days = 14u64;
    let trace = generator.generate(&mut rng, days * DAY_US);
    let times: Vec<u64> = trace.iter().map(|e| e.at_us).collect();
    println!(
        "polls/day  redundant%  (rolling 20-headline page, {} stories/day)",
        times.len() as u64 / days
    );
    for &p in polls {
        let r = baselines::simulate_polling(&times, DAY_US / p, days * DAY_US, 20, 300);
        println!("{:>9}  {:>9.1}", p, 100.0 * r.redundant_fraction());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, UsageError> {
        let args: Vec<String> = words.iter().map(|s| (*s).to_string()).collect();
        Command::parse(&args)
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults_and_overrides() {
        let Command::Run(o) = parse(&["run"]).unwrap() else { panic!() };
        assert_eq!(o.subscribers, 200);
        let Command::Run(o) =
            parse(&["run", "--subscribers", "50", "--seed", "7", "--report"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(o.subscribers, 50);
        assert_eq!(o.seed, 7);
        assert!(o.report);
    }

    #[test]
    fn model_and_wan() {
        let Command::Run(o) = parse(&["run", "--model", "masks", "--wan", "0.05"]).unwrap() else {
            panic!()
        };
        assert_eq!(o.model, SubscriptionModel::CategoryMask);
        assert_eq!(o.wan, Some(0.05));
        assert!(parse(&["run", "--model", "smoke"]).is_err());
        assert!(parse(&["run", "--wan", "1.5"]).is_err());
    }

    #[test]
    fn trace_gen_flags() {
        let Command::TraceGen { days, format, seed } =
            parse(&["trace-gen", "--days", "3", "--format", "newsml", "--seed", "9"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(days, 3);
        assert_eq!(format, TraceFormat::Newsml);
        assert_eq!(seed, 9);
    }

    #[test]
    fn redundancy_polls() {
        let Command::Redundancy { polls } = parse(&["redundancy", "--polls", "1,4,24"]).unwrap()
        else {
            panic!()
        };
        assert_eq!(polls, vec![1, 4, 24]);
        assert!(parse(&["redundancy", "--polls", "0"]).is_err());
        assert!(parse(&["redundancy", "--polls", "a,b"]).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "--nope"]).is_err());
        assert!(parse(&["run", "--subscribers"]).is_err());
        assert!(parse(&["run", "--branching", "65"]).is_err());
    }
}
