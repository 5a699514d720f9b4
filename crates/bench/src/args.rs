//! Command-line arguments of the bench binaries: `--name` switches and
//! `--name value` pairs, read straight from the process arguments.

use std::str::FromStr;

/// Whether the switch `name` (e.g. `--smoke`) was passed.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `name` (e.g. `--seed 7`), if the option was passed.
/// A value that does not parse as `T` is a usage error: the binary prints it
/// and exits non-zero rather than silently running with the default.
pub fn value<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::args().skip_while(|a| a != name).nth(1)?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("{name}: cannot parse {raw:?}");
            std::process::exit(2);
        }
    }
}
