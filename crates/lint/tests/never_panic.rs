//! The lexer and the manifest reader return on any input: every
//! workspace `.rs` and `Cargo.toml` file, cut at seeded random character
//! positions with a fragment that opens or closes a string, comment,
//! attribute or table spliced in, and strings built from those fragments
//! alone. A panic fails the test; its message names the input.

use guardnn_lint::lexer::LexedFile;
use guardnn_lint::manifest::Manifest;
use std::fs;
use std::path::{Path, PathBuf};

/// Fragments that change the lexer's or the reader's state.
const FRAGMENTS: [&str; 11] = [
    "\"",
    "r#\"",
    "br\"",
    "/*",
    "*/",
    "'",
    "b'",
    "#[cfg(test)]",
    "{",
    "}",
    "[[",
];

/// Mutants per file.
const MUTANTS: usize = 40;

/// Strings built from fragments alone.
const FRAGMENT_STRINGS: usize = 20_000;

/// splitmix64: the seeded source of cut positions and fragments.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(state: &mut u64, items: &[&'a str]) -> &'a str {
    items[(splitmix(state) % items.len() as u64) as usize]
}

/// Every `.rs` and `Cargo.toml` under `dir`, skipping build output and
/// hidden directories.
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .expect("read workspace directory")
        .map(|entry| entry.expect("read directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Cuts `text` at one to three random character positions; each cut
/// either splices a fragment in or drops the rest of the text after one.
fn mutate(text: &str, state: &mut u64) -> String {
    let mut text = text.to_string();
    for _ in 0..1 + splitmix(state) % 3 {
        let mut at = (splitmix(state) % (text.len() as u64 + 1)) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let fragment = pick(state, &FRAGMENTS);
        if splitmix(state).is_multiple_of(4) {
            text.truncate(at);
            text.push_str(fragment);
        } else {
            text.insert_str(at, fragment);
        }
    }
    text
}

/// Runs both readers on `input`; a panic fails the test naming `origin`.
fn read_both(input: &str, origin: &str) {
    let result = std::panic::catch_unwind(|| {
        LexedFile::lex(input);
        Manifest::parse(input);
    });
    assert!(result.is_ok(), "a reader panicked on {origin}");
}

#[test]
fn readers_never_panic_on_cut_workspace_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    collect_sources(&root, &mut files);
    assert!(files.len() > 100, "found only {} source files", files.len());
    let mut state = 0x11_7E57;
    for path in &files {
        let text = fs::read_to_string(path).expect("read source file");
        for mutant in 0..MUTANTS {
            let input = mutate(&text, &mut state);
            read_both(&input, &format!("mutant {mutant} of {}", path.display()));
        }
    }
}

#[test]
fn readers_never_panic_on_fragment_strings() {
    let mut state = 0xF8A6;
    let glue = ["", " ", "\n", "x", "=", "\\", "#", "r", "b"];
    for case in 0..FRAGMENT_STRINGS {
        let mut input = String::new();
        for _ in 0..1 + splitmix(&mut state) % 12 {
            input.push_str(pick(&mut state, &FRAGMENTS));
            input.push_str(pick(&mut state, &glue));
        }
        read_both(&input, &format!("fragment string {case}: {input:?}"));
    }
}
