//! Flag parsing shared by the harness bins (`gpq`, `experiments`,
//! `datagen`, `report`). Each bin keeps its own usage text; a usage
//! error always prints one line plus that text and exits 2.

use std::str::FromStr;

/// Parses the value following flag `name` as a `T`, advancing `*i` onto
/// it. `what` names the expected value in the error ("an integer").
pub fn take<T: FromStr>(
    args: &[String],
    i: &mut usize,
    name: &str,
    what: &str,
) -> Result<T, String> {
    *i += 1;
    let raw = args.get(*i).ok_or_else(|| format!("{name} takes {what}"))?;
    raw.parse()
        .map_err(|_| format!("{name} takes {what}, got {raw:?}"))
}

/// Prints `msg` and `usage` on stderr and exits 2.
pub fn die_usage(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Walks `args`, handing each flag and the cursor to `set`, which reads
/// the flag's value with [`take`] and returns `Ok(false)` for a flag it
/// does not know. `--help` prints `usage` and exits 0; an unknown flag
/// or a missing or unparsable value exits 2 through [`die_usage`].
pub fn parse_flags(
    args: &[String],
    usage: &str,
    mut set: impl FnMut(&str, &mut usize) -> Result<bool, String>,
) {
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        match set(flag, &mut i) {
            Ok(true) => i += 1,
            Ok(false) => die_usage(&format!("unknown flag {flag:?}"), usage),
            Err(e) => die_usage(&e, usage),
        }
    }
}

#[cfg(test)]
mod tests {
    /// [`super::take`] for the flag at `list[0]`: its result and the
    /// cursor after it.
    fn take<T: std::str::FromStr>(list: &[&str], what: &str) -> (Result<T, String>, usize) {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        let mut i = 0;
        (super::take(&args, &mut i, list[0], what), i)
    }

    #[test]
    fn a_missing_value_is_an_error() {
        let (got, _) = take::<String>(&["--out"], "a file path");
        assert_eq!(got.unwrap_err(), "--out takes a file path");
    }

    #[test]
    fn an_unparsable_value_is_an_error() {
        let (got, _) = take::<usize>(&["--vertices", "many"], "an integer");
        assert_eq!(
            got.unwrap_err(),
            "--vertices takes an integer, got \"many\""
        );
    }

    #[test]
    fn a_good_value_parses_and_the_cursor_moves_onto_it() {
        let got = take::<u64>(&["--seed", "42", "--out", "x.json"], "an integer");
        assert_eq!(got, (Ok(42), 1));
    }
}
