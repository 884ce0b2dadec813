//! Where each byte goes: `bytes_sent` of `publish_steady`'s and
//! `lossy_revisions`' deployments (`newswire_repro::census`) split by the
//! cause each message was sent for, counted at the send site over the
//! publication window and the drain — the span the benchmark's
//! `wire_bytes_per_delivery` measures. The causes sum to `bytes_sent`
//! exactly; the run panics if they do not.
//!
//! Run with: `cargo run --release --example byte_split [seed]`

use newswire_repro::census::{self, Shape, SUBSCRIBERS};
use obs::ctr;

const CAUSES: [(obs::CtrId, &str); 8] = [
    (ctr::BYTES_HANDOFF, "hand-off payload"),
    (ctr::BYTES_HANDOFF_ANNOUNCE, "hand-off announce"),
    (ctr::BYTES_DELIVER, "final-hop payload"),
    (ctr::BYTES_DELIVER_ANNOUNCE, "final-hop announce"),
    (ctr::BYTES_ACK, "acknowledgement"),
    (ctr::BYTES_GOSSIP, "gossip"),
    (ctr::BYTES_RECONCILE, "reconcile"),
    (ctr::BYTES_OTHER, "other"),
];

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    for shape in [Shape::PublishSteady, Shape::LossyRevisions] {
        let sim = census::run_settled(shape, SUBSCRIBERS, seed, |sim| {
            sim.drain_telemetry();
        });
        let hub = sim.telemetry();
        let hub = hub.borrow();
        let total = |id| hub.counter_total(id);
        let sent = total(ctr::BYTES_SENT);
        let delivered = total(ctr::NW_DELIVERED);
        println!("{} seed {seed}: bytes_sent {sent}, {delivered} deliveries", shape.name());
        let mut sum = 0;
        for (id, name) in CAUSES {
            let bytes = total(id);
            sum += bytes;
            let (share, per) =
                (100.0 * bytes as f64 / sent as f64, bytes as f64 / delivered as f64);
            println!("  {name:<20}{bytes:>12} B {share:>6.2} % {per:>9.1} B/delivery");
        }
        assert_eq!(sum, sent, "the causes sum to bytes_sent");
        let counts = [
            ("hand-off announces", ctr::NW_HANDOFF_ANNOUNCES),
            ("  ran out", ctr::NW_HANDOFF_ANNOUNCE_PAYLOADS),
            ("final-hop announces", ctr::NW_ANNOUNCES),
            ("  ran out", ctr::NW_ANNOUNCE_PAYLOADS),
            ("duplicates", ctr::NW_DUPLICATES),
        ];
        for (name, id) in counts {
            println!("  {name:<20}{:>12}", total(id));
        }
    }
}
