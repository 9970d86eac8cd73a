//! Drift check for `docs/FLAGS.md`, which claims to be the single
//! authoritative table of every `BYTEROBUST_*` environment flag.
//!
//! The test collects every `BYTEROBUST_[A-Z_]+` name that appears in the
//! non-test sources (`crates/*/src`, `src/`, `examples/`; each file up to its
//! first `#[cfg(test)]`) and asserts that this set equals the set of flag
//! rows in the table. A flag added without a row, or a row left behind by a
//! deleted flag, fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const PREFIX: &str = "BYTEROBUST_";

/// Every `BYTEROBUST_[A-Z_]+` name in `text`, in order of appearance.
fn flag_names(text: &str) -> impl Iterator<Item = String> + '_ {
    text.match_indices(PREFIX).filter_map(|(at, _)| {
        let rest = &text[at + PREFIX.len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(rest.len());
        (len > 0).then(|| format!("{PREFIX}{}", &rest[..len]))
    })
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|err| panic!("{}: {err}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The flags the non-test sources mention.
fn source_flags(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut flags = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let non_test = text.split("#[cfg(test)]").next().unwrap_or_default();
        flags.extend(flag_names(non_test));
    }
    flags
}

/// The flag of every table row (`| \`BYTEROBUST_X...\` | ...`) in
/// `docs/FLAGS.md`. Panics on a duplicated row.
fn table_flags(root: &Path) -> BTreeSet<String> {
    let table = std::fs::read_to_string(root.join("docs/FLAGS.md")).unwrap();
    let mut flags = BTreeSet::new();
    for line in table.lines() {
        let Some(cell) = line
            .strip_prefix("| `")
            .filter(|cell| cell.starts_with(PREFIX))
        else {
            continue;
        };
        if let Some(flag) = flag_names(cell).next() {
            assert!(
                flags.insert(flag.clone()),
                "{flag} has two rows in docs/FLAGS.md"
            );
        }
    }
    flags
}

#[test]
fn flags_table_lists_exactly_the_flags_the_sources_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let in_sources = source_flags(root);
    let in_table = table_flags(root);
    let undocumented: Vec<_> = in_sources.difference(&in_table).collect();
    let stale: Vec<_> = in_table.difference(&in_sources).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/FLAGS.md is out of date.\n  flags with no row: {undocumented:?}\n  \
         rows no source mentions: {stale:?}"
    );
}
