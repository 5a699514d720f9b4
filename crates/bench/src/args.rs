//! Command-line arguments of the figure and fuzz binaries: `--name` switches
//! and `--name value` pairs, read straight from the process arguments.

use std::str::FromStr;

/// Whether the switch `name` (e.g. `--smoke`) was passed.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `name` (e.g. `--seed 7`), if the option was passed.
/// A missing value, or one that does not parse as `T`, is a usage error: the
/// binary prints it and exits non-zero rather than silently running with the
/// default.
pub fn value<T: FromStr>(name: &str) -> Option<T> {
    let mut rest = std::env::args().skip_while(|a| a != name);
    rest.next()?;
    let parsed = match rest.next() {
        Some(raw) => raw.parse().map_err(|_| format!("cannot parse {raw:?}")),
        None => Err("needs a value".to_string()),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(why) => {
            eprintln!("{name}: {why}");
            std::process::exit(2);
        }
    }
}
