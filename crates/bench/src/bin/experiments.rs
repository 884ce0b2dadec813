//! The experiment runner: regenerates every table of the reproduction.
//!
//! ```text
//! cargo run -p bench --release --bin experiments              # all of E1–E21 + A1
//! cargo run -p bench --release --bin experiments -- e3 e5     # a subset
//! cargo run -p bench --release --bin experiments -- --quick   # smaller sizes
//! cargo run -p bench --release --bin experiments -- --ledger  # + one line per cell
//! ```
//!
//! `--ledger` follows each table with one `<id> <row> <column> <value>` line
//! per cell (`bench::Table::ledger`), the form `scripts/ledger.sh
//! experiments` keeps.

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    bench::print_ledger(args.iter().any(|a| a == "--ledger"));
    let requested: Vec<String> =
        args.iter().filter(|a| !a.starts_with('-')).map(|a| a.to_lowercase()).collect();
    let ids: Vec<&str> = if requested.is_empty() {
        bench::ALL.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    println!(
        "# NewsWire reproduction — experiment suite ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    let t0 = Instant::now();
    for id in ids {
        let start = Instant::now();
        if !bench::run(id, quick) {
            eprintln!("unknown experiment `{id}` (valid: {:?})", bench::ALL);
            std::process::exit(2);
        }
        println!("[{id} took {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    println!("# suite completed in {:.1}s", t0.elapsed().as_secs_f64());
}
