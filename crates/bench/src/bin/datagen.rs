//! Dataset generator CLI: builds one of the four evaluation datasets and
//! writes it to the plain-text `.ssn` format (readable back by `gpq` and
//! `gpssn_ssn::load_ssn`).
//!
//! ```text
//! cargo run --release -p gpssn-bench --bin datagen -- \
//!     --kind uni --scale 0.1 --seed 42 --out city.ssn
//! ```

use gpssn_bench::cli::{parse_flags, take};
use gpssn_ssn::{save_ssn, DatasetKind, DatasetStats};

const USAGE: &str =
    "usage: datagen [--kind uni|zipf|bri-cal|gow-col] [--scale F] [--seed N] [--out FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = DatasetKind::Uni;
    let mut scale = 0.1f64;
    let mut seed = 42u64;
    let mut out = String::from("dataset.ssn");
    parse_flags(&args, USAGE, |flag, i| {
        match flag {
            "--kind" => {
                let name: String = take(&args, i, flag, "a dataset kind")?;
                kind = match name.to_lowercase().as_str() {
                    "uni" => DatasetKind::Uni,
                    "zipf" => DatasetKind::Zipf,
                    "bri-cal" | "brical" | "bri+cal" => DatasetKind::BriCal,
                    "gow-col" | "gowcol" | "gow+col" => DatasetKind::GowCol,
                    other => {
                        return Err(format!("unknown kind {other:?} (uni|zipf|bri-cal|gow-col)"))
                    }
                };
            }
            "--scale" => scale = take(&args, i, flag, "a float")?,
            "--seed" => seed = take(&args, i, flag, "an integer")?,
            "--out" => out = take(&args, i, flag, "a file path")?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    eprintln!(
        "generating {} at scale {scale} (seed {seed})...",
        kind.name()
    );
    let ssn = kind.build(scale, seed);
    eprintln!("  {}", DatasetStats::of(&ssn));
    save_ssn(&ssn, &out).expect("failed to write dataset");
    eprintln!("wrote {out}");
}
