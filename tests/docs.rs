//! The docs point at files that exist.
//!
//! * Every backticked path in README.md and DESIGN.md names a file or
//!   directory of the repository. A path is a token that starts with a
//!   top-level directory (`crates/`, `tests/`, …); brace alternatives
//!   (`crates/{shard,dist}/tests/differential.rs`) and `*` globs
//!   (`crates/*/src`) are expanded, and a `:N` suffix is dropped.
//! * Every `path:N` reference in README.md, DESIGN.md and ROADMAP.md
//!   whose path starts at the repository root (a top-level directory or
//!   file) names a line inside that file.
//! * Every backticked path in ROADMAP.md — a token with a `/` in it —
//!   names a file or directory from the repository root, `crates/` or
//!   `benchmark/` (so `shard/src/adaptive.rs` and `src/stacks.rs`
//!   resolve), braces and globs expanded as above.
//! * Every "ROADMAP item N" in README.md and DESIGN.md names an item of
//!   ROADMAP.md's open list.
//! * Every `cargo test … --test NAME` in the verify skill and the CI
//!   workflow names a test target that exists in the package it selects
//!   (`-p cij-X` is `crates/X`, no `-p` the root package), so a suite that
//!   moves fails here instead of leaving a stale command behind.
//! * Every `figures <subcommand>` in README.md, DESIGN.md and the verify
//!   skill — inline code that starts `figures`, or a `--bin figures --`
//!   command — is a match arm of the `figures` binary, so a deleted
//!   figure takes its mentions with it.

use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The top-level directories and files of the repository, build output
/// and hidden entries left out.
fn top_level() -> (Vec<String>, Vec<String>) {
    let (mut dirs, mut files) = (Vec::new(), Vec::new());
    for entry in fs::read_dir(root()).expect("repository root") {
        let entry = entry.expect("directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if entry.path().is_dir() {
            dirs.push(name);
        } else {
            files.push(name);
        }
    }
    (dirs, files)
}

fn read(doc: &str) -> String {
    fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// `a{b,c}d{e,f}` → `abde`, `abdf`, `acde`, `acdf`.
fn expand_braces(token: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (token.find('{'), token.find('}')) else {
        return vec![token.to_string()];
    };
    let (head, tail) = (&token[..open], &token[close + 1..]);
    (token[open + 1..close].split(','))
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}

/// Whether `name` matches `pattern`, in which `*` stands for any run.
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => name.strip_prefix(head).is_some_and(|rest| {
            (0..=rest.len()).any(|i| rest.is_char_boundary(i) && glob_match(tail, &rest[i..]))
        }),
    }
}

/// Whether `path` (relative to the root, `*` allowed in any component)
/// names something that exists.
fn exists(path: &str) -> bool {
    let path = path.trim_end_matches('/');
    let Some(star) = path.find('*') else {
        return root().join(path).exists();
    };
    let dir_end = path[..star].rfind('/').map_or(0, |i| i + 1);
    let (dir, rest) = (&path[..dir_end], &path[dir_end..]);
    let (pattern, tail) = rest
        .split_once('/')
        .map_or((rest, None), |(p, t)| (p, Some(t)));
    fs::read_dir(root().join(dir)).is_ok_and(|entries| {
        entries.filter_map(Result::ok).any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            glob_match(pattern, &name)
                && tail.is_none_or(|tail| exists(&format!("{dir}{name}/{tail}")))
        })
    })
}

#[test]
fn backticked_paths_exist() {
    let (dirs, _) = top_level();
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        let text = read(doc);
        for (n, line) in text.lines().enumerate() {
            for token in line.split('`').skip(1).step_by(2) {
                let path = token.split(':').next().unwrap_or(token);
                if !dirs.iter().any(|d| path.starts_with(&format!("{d}/"))) {
                    continue;
                }
                for candidate in expand_braces(path) {
                    if !exists(&candidate) {
                        missing.push(format!("{doc}:{}: `{token}`", n + 1));
                    }
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// The backticked tokens of `text` that look like relative paths: a `/`
/// in them, no whitespace, and only path characters (a `:N` suffix is
/// dropped).
fn backticked_paths(text: &str) -> Vec<String> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-{},*".contains(c);
    (text.split('`').skip(1).step_by(2))
        .map(|token| token.split(':').next().unwrap_or(token))
        .filter(|path| path.contains('/') && !path.starts_with('/') && path.chars().all(is_path))
        .map(str::to_string)
        .collect()
}

#[test]
fn roadmap_paths_resolve() {
    let text = read("ROADMAP.md");
    let missing: Vec<String> = backticked_paths(&text)
        .into_iter()
        .filter(|path| {
            !expand_braces(path).iter().all(|candidate| {
                ["", "crates/", "benchmark/"]
                    .iter()
                    .any(|base| exists(&format!("{base}{candidate}")))
            })
        })
        .collect();
    assert!(
        missing.is_empty(),
        "ROADMAP.md paths that resolve from neither the root, crates/ nor benchmark/:\n{}",
        missing.join("\n")
    );
}

/// The item numbers `text` cites as "ROADMAP item N" (line breaks count
/// as spaces).
fn cited_items(text: &str) -> Vec<u32> {
    let words: Vec<&str> = text.split_whitespace().collect();
    (words.windows(3))
        .filter(|w| w[0] == "ROADMAP" && w[1] == "item")
        .filter_map(|w| {
            let digits: String = w[2].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect()
}

/// The numbers of ROADMAP.md's items: the lines `- **N. Title…`.
fn roadmap_items(text: &str) -> Vec<u32> {
    (text.lines())
        .filter_map(|line| line.strip_prefix("- **")?.split_once('.')?.0.parse().ok())
        .collect()
}

#[test]
fn cited_roadmap_items_exist() {
    let items = roadmap_items(&read("ROADMAP.md"));
    let mut unknown = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        for n in cited_items(&read(doc)) {
            if !items.contains(&n) {
                unknown.push(format!("{doc}: ROADMAP item {n}"));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "items ROADMAP.md does not have:\n{}",
        unknown.join("\n")
    );
}

/// The `path:N` tokens of `text`: `N` parsed, the path as written.
fn line_refs(text: &str) -> Vec<(String, usize)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut refs = Vec::new();
    for (at, _) in text.match_indices(':') {
        let path_start = text[..at]
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_path(c))
            .last()
            .map_or(at, |(i, _)| i);
        let path = &text[path_start..at];
        let digits: String = text[at + 1..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if path.contains('.') && !digits.is_empty() {
            refs.push((path.to_string(), digits.parse().expect("digits")));
        }
    }
    refs
}

#[test]
fn line_references_point_inside_their_file() {
    let (dirs, files) = top_level();
    let from_root = |path: &str| {
        files.iter().any(|f| f == path) || dirs.iter().any(|d| path.starts_with(&format!("{d}/")))
    };
    let mut broken = Vec::new();
    for doc in ["README.md", "DESIGN.md", "ROADMAP.md"] {
        for (path, line) in line_refs(&read(doc)) {
            if !from_root(&path) {
                continue;
            }
            let lines = fs::read_to_string(root().join(&path))
                .map(|text| text.lines().count())
                .unwrap_or(0);
            if line == 0 || line > lines {
                broken.push(format!("{doc}: {path}:{line} ({lines} lines)"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "references past their file:\n{}",
        broken.join("\n")
    );
}

/// The `(package directory, test name)` of every `--test NAME` of every
/// `cargo test` command in `text`: `-p cij-X` selects `crates/X`,
/// `--manifest-path DIR/Cargo.toml` selects `DIR`, and a command that
/// selects neither, the root package (`""`). A command may wrap across
/// lines; it ends at `--`, a shell operator, a comment, the next `cargo`
/// or the end of its inline code span.
fn test_targets(text: &str) -> Vec<(String, String)> {
    let raw: Vec<&str> = text.split_whitespace().collect();
    let word = |i: usize| {
        raw.get(i)
            .map_or("", |w| w.trim_matches(|c| "`(),;".contains(c)))
    };
    let mut targets = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if (word(i), word(i + 1)) != ("cargo", "test") {
            i += 1;
            continue;
        }
        let (mut dirs, mut names) = (Vec::new(), Vec::new());
        let mut last = raw[i + 1].ends_with('`');
        i += 2;
        while i < raw.len() && !last {
            let w = word(i);
            if ["--", "&&", "||", "|", "cargo"].contains(&w) || raw[i].starts_with(['#', '`']) {
                break;
            }
            let takes_value = ["-p", "--package", "--manifest-path", "--test"].contains(&w);
            let value = if takes_value { word(i + 1) } else { "" };
            match w {
                "-p" | "--package" => {
                    let dir = value.strip_prefix("cij-").map(|c| format!("crates/{c}"));
                    dirs.push(dir.unwrap_or_default());
                }
                "--manifest-path" => {
                    let dir = value.trim_end_matches("Cargo.toml").trim_end_matches('/');
                    dirs.push(dir.to_string());
                }
                "--test" => names.push(value.to_string()),
                _ => {}
            }
            i += usize::from(takes_value);
            last = raw.get(i).is_some_and(|w| w.ends_with('`'));
            i += 1;
        }
        if dirs.is_empty() {
            dirs.push(String::new());
        }
        for dir in &dirs {
            targets.extend(names.iter().map(|name| (dir.clone(), name.clone())));
        }
    }
    targets
}

#[test]
fn cargo_test_targets_exist() {
    let mut missing = Vec::new();
    for doc in [".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"] {
        for (dir, name) in test_targets(&read(doc)) {
            let tests = Some(dir.as_str())
                .filter(|d| !d.is_empty())
                .map_or("tests".into(), |d| format!("{d}/tests"));
            if !exists(&format!("{tests}/{name}.rs")) && !exists(&format!("{tests}/{name}/main.rs"))
            {
                missing.push(format!("{doc}: `--test {name}` in `{tests}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "test targets that do not exist:\n{}",
        missing.join("\n")
    );
}

/// The subcommands `text` runs: the word after `figures` in inline code
/// that starts with it, and after `--bin figures --` (a placeholder such
/// as `<subcommand>` or a flag is not one).
fn figure_subcommands(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    for token in text.split('`').skip(1).step_by(2) {
        if let Some(rest) = token.strip_prefix("figures ") {
            found.extend(rest.split_whitespace().next().map(str::to_string));
        }
    }
    for (at, pattern) in text.match_indices("--bin figures --") {
        let rest = &text[at + pattern.len()..];
        found.extend(rest.split_whitespace().next().map(str::to_string));
    }
    found.retain(|word| !word.starts_with(['<', '-']));
    found
}

/// The match arms of the `figures` binary: its `"name" =>` lines.
fn figure_arms(main: &str) -> Vec<String> {
    (main.lines())
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\" =>"))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn figure_subcommands_exist() {
    let arms = figure_arms(&read("crates/bench/src/main.rs"));
    let mut unknown = Vec::new();
    for doc in ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"] {
        for name in figure_subcommands(&read(doc)) {
            if !arms.contains(&name) {
                unknown.push(format!("{doc}: `figures {name}`"));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "subcommands the figures binary does not have:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn the_scanners_see_what_they_scan() {
    assert_eq!(
        expand_braces("crates/{shard,dist}/tests/{a,b}.rs"),
        [
            "crates/shard/tests/a.rs",
            "crates/shard/tests/b.rs",
            "crates/dist/tests/a.rs",
            "crates/dist/tests/b.rs"
        ]
    );
    assert!(glob_match("*_fuzz.rs", "wire_fuzz.rs"));
    assert!(!glob_match("*_fuzz.rs", "wire_fuzz.rs.orig"));
    assert!(exists("crates/stream/tests/*_fuzz.rs"));
    assert_eq!(
        backticked_paths("`shard/src/a.rs:60`, `a / b`, `/abs/`, `x/{y,z}` and `a`"),
        ["shard/src/a.rs", "x/{y,z}"]
    );
    assert_eq!(
        cited_items("ROADMAP item 12, ROADMAP\nitem 3(b) and item 4"),
        [12, 3]
    );
    assert_eq!(
        roadmap_items("- **1. One.**\n  - **2. no\n- **19. Two.**"),
        [1, 19]
    );
    assert!(!exists("crates/stream/tests/*_nowhere.rs"));
    assert!(exists("crates/*/src"));
    assert!(!exists("crates/*/nowhere"));
    let target = |dir: &str, name: &str| (dir.to_string(), name.to_string());
    assert_eq!(
        test_targets(
            "`cargo test -p cij-dist --test a --test b` -p x && cargo test --test c -- --test d\n\
             cargo test -q --test e # --test f\n\
             cargo test --manifest-path benchmark/Cargo.toml --test\ng"
        ),
        [
            target("crates/dist", "a"),
            target("crates/dist", "b"),
            target("", "c"),
            target("", "e"),
            target("benchmark", "g")
        ]
    );
    assert_eq!(
        figure_subcommands(
            "`figures fig7` and `figures all --scale small`, not figures fig8\n\
             cargo run --bin figures -- validate  # and --bin figures -- <subcommand>"
        ),
        ["fig7", "all", "validate"]
    );
    assert_eq!(
        figure_arms("        \"fig7\" => fig7(scale),\n        \"all\" => [\n    x => y"),
        ["fig7", "all"]
    );
    assert_eq!(
        line_refs("see DESIGN.md:458, `crates/core/src/engine.rs:12` and x:3"),
        [
            ("DESIGN.md".to_string(), 458),
            ("crates/core/src/engine.rs".to_string(), 12)
        ]
    );
}
