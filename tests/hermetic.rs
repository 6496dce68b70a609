//! Hermeticity guard: the workspace must build with **zero** registry
//! dependencies. Every dependency declared in any manifest has to be either
//! a `path = "..."` dependency or `workspace = true` resolving to a
//! path-only entry in `[workspace.dependencies]`. A registry dependency
//! (bare version string, `version = ...` without `path`, git, etc.) fails
//! this test before it can fail `cargo build --offline` in CI.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The dependency-declaring sections we audit.
const DEP_SECTIONS: [&str; 4] = [
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// One parsed dependency declaration.
#[derive(Debug)]
struct Dep {
    name: String,
    section: String,
    has_path: bool,
    is_workspace_ref: bool,
}

/// A minimal TOML reader for the subset Cargo manifests use: `[section]`
/// headers, `key = "string"`, and `key = { inline, tables }`. It only needs
/// to answer "does this dependency declare `path`" — not full TOML.
fn parse_deps(text: &str) -> Vec<Dep> {
    let mut deps = Vec::new();
    let mut section = String::new();
    let mut lines = text.lines().peekable();
    while let Some(raw) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().trim_matches('"').to_string();
            continue;
        }
        let in_dep_section = DEP_SECTIONS.iter().any(|s| {
            // `[dependencies]`, `[workspace.dependencies]`, and target-
            // specific tables like `[target.'cfg(unix)'.dependencies]`.
            section == *s || section.ends_with(&format!(".{s}"))
        });
        if !in_dep_section {
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let name = line[..eq].trim().trim_matches('"').to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line inline tables: keep consuming until braces balance.
        while value.starts_with('{') && value.matches('{').count() > value.matches('}').count() {
            let Some(next) = lines.next() else { break };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let has_path = value.starts_with('{') && inline_table_has_key(&value, "path");
        let is_workspace_ref = (value.starts_with('{')
            && inline_table_has_key(&value, "workspace"))
            || value == "true" && name.ends_with(".workspace");
        deps.push(Dep {
            name: name.trim_end_matches(".workspace").to_string(),
            section: section.clone(),
            has_path,
            is_workspace_ref,
        });
    }
    deps
}

fn strip_comment(line: &str) -> &str {
    // Good enough for Cargo.toml: none of ours embed '#' inside strings.
    line.split('#').next().unwrap_or("")
}

fn inline_table_has_key(table: &str, key: &str) -> bool {
    table
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .any(|kv| {
            kv.split('=')
                .next()
                .map(|k| k.trim() == key)
                .unwrap_or(false)
        })
}

fn manifest_paths() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates).expect("crates/ exists") {
        let dir = entry.expect("readable dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            paths.push(manifest);
        }
    }
    assert!(
        paths.len() >= 12,
        "expected the workspace's member manifests, got {paths:?}"
    );
    paths
}

#[test]
fn all_dependencies_are_path_only() {
    // Pass 1: collect [workspace.dependencies] so `workspace = true`
    // references can be resolved to their definition.
    let root_text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
            .expect("workspace manifest");
    let mut workspace_deps: BTreeMap<String, bool> = BTreeMap::new();
    for d in parse_deps(&root_text) {
        if d.section == "workspace.dependencies" {
            workspace_deps.insert(d.name.clone(), d.has_path);
        }
    }
    assert!(
        !workspace_deps.is_empty(),
        "workspace.dependencies should define the shared path deps"
    );

    // Pass 2: audit every manifest.
    let mut violations = Vec::new();
    for manifest in manifest_paths() {
        let text = std::fs::read_to_string(&manifest).expect("readable manifest");
        for d in parse_deps(&text) {
            if d.section == "workspace.dependencies" {
                if !d.has_path {
                    violations.push(format!(
                        "{}: workspace dep `{}` is not a path dependency",
                        manifest.display(),
                        d.name
                    ));
                }
                continue;
            }
            let ok = d.has_path
                || (d.is_workspace_ref && workspace_deps.get(&d.name).copied().unwrap_or(false));
            if !ok {
                violations.push(format!(
                    "{}: [{}] `{}` is not path-only (registry or git dependency?)",
                    manifest.display(),
                    d.section,
                    d.name
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-hermetic dependencies found:\n{}",
        violations.join("\n")
    );
}

#[test]
fn banned_registry_crates_are_gone() {
    // The five crates the seed pulled from the registry must never return.
    const BANNED: [&str; 5] = ["rand", "proptest", "criterion", "crossbeam", "parking_lot"];
    for manifest in manifest_paths() {
        let text = std::fs::read_to_string(&manifest).expect("readable manifest");
        for d in parse_deps(&text) {
            assert!(
                !BANNED.contains(&d.name.as_str()),
                "{}: banned registry crate `{}` reintroduced in [{}]",
                manifest.display(),
                d.name,
                d.section
            );
        }
    }
}

#[test]
fn rt_crate_is_std_only() {
    // `hoyan-rt` is the workspace's foundation layer (PRNG, prop harness,
    // bench harness, hasher); nothing below it exists, so every `use` in its
    // sources must resolve to `std`/`core`/`alloc` or the crate itself. This
    // is what lets higher layers (e.g. the BDD engine's `FxHashMap` tables)
    // lean on it without dragging in registry crates.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/rt/src");
    let mut audited = Vec::new();
    for entry in std::fs::read_dir(&src).expect("crates/rt/src exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable source");
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let Some(rest) = line
                .strip_prefix("pub use ")
                .or_else(|| line.strip_prefix("use "))
            else {
                continue;
            };
            let root = rest
                .trim_start_matches("::")
                .split(&[':', ';', ' '][..])
                .next()
                .unwrap_or("");
            assert!(
                ["std", "core", "alloc", "crate", "self", "super"].contains(&root),
                "{}:{}: `{}` imports from `{root}`, but hoyan-rt must be std-only",
                path.display(),
                i + 1,
                line
            );
        }
        audited.push(
            path.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string(),
        );
    }
    // The modules the workspace depends on must actually be in the audit —
    // in particular the hasher the BDD tables run on.
    for module in ["hash.rs", "rng.rs", "prop.rs", "bench.rs", "lib.rs"] {
        assert!(
            audited.iter().any(|f| f == module),
            "expected to audit crates/rt/src/{module}, found {audited:?}"
        );
    }
}

#[test]
fn core_and_logic_sources_are_panic_free() {
    // Quarantine only works if the engine under `catch_unwind` does not
    // *casually* panic: a panic loses the worker's warm BDD arena and turns
    // a recoverable `SimError` into a stringly-typed outcome. Non-test code
    // in the simulation core and the logic engines must therefore never use
    // `panic!` or `.unwrap()`. `.expect("...")` stays allowed — it documents
    // an invariant — as does `into_inner()`-based poisoned-mutex recovery.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let mut audited = Vec::new();
    for dir in ["crates/core/src", "crates/logic/src", "src/bin"] {
        let mut stack = vec![root.join(dir)];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("source dir exists") {
                let path = entry.expect("readable dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("readable source");
                audited.push(
                    path.file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or_default()
                        .to_string(),
                );
                for (i, raw) in text.lines().enumerate() {
                    // Unit tests live in a tail `#[cfg(test)] mod tests` per
                    // file; everything below the marker is test code.
                    if raw.contains("#[cfg(test)]") {
                        break;
                    }
                    let line = raw.split("//").next().unwrap_or("");
                    // Poisoned-mutex recovery (`unwrap_or_else(|p|
                    // p.into_inner())`) is the sanctioned non-panicking
                    // pattern and may share a line with `.unwrap_or_else`.
                    if line.contains("into_inner()") {
                        continue;
                    }
                    for needle in ["panic!(", ".unwrap()"] {
                        if line.contains(needle) {
                            violations.push(format!(
                                "{}:{}: `{needle}` in non-test code",
                                path.display(),
                                i + 1
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(audited.len() >= 17, "expected to audit the core/logic/bin sources");
    // Modules added since the floor was set must actually be in the walk —
    // the daemon holds the resident state a panicking worker would orphan,
    // and the CLI is the operator surface where a panic masks the
    // structured usage/run error split.
    for module in ["topology.rs", "network.rs", "propagate.rs", "serve.rs", "hoyan.rs"] {
        assert!(
            audited.iter().any(|f| f == module),
            "expected to audit {module}, found {audited:?}"
        );
    }
    assert!(
        violations.is_empty(),
        "panicking constructs in quarantine-covered code:\n{}",
        violations.join("\n")
    );
}

#[test]
fn parser_flags_registry_style_deps() {
    // Sanity-check the guard itself: it must catch the classic shapes.
    let bad = r#"
[dependencies]
rand = "0.8"
serde = { version = "1", features = ["derive"] }
local = { path = "../local" }
shared.workspace = true
"#;
    let deps = parse_deps(bad);
    let find = |n: &str| deps.iter().find(|d| d.name == n).unwrap();
    assert!(!find("rand").has_path && !find("rand").is_workspace_ref);
    assert!(!find("serde").has_path);
    assert!(find("local").has_path);
    assert!(find("shared").is_workspace_ref);
}

/// The functions under `crates/device/src` and in `propagate.rs` that read
/// a prefix-dependent config input, as `(file, fn)` pairs.
fn prefix_input_readers(root: &Path) -> std::collections::BTreeSet<(String, String)> {
    const READS: [&str; 6] = [
        ".prefix_lists",
        "MatchClause::Prefix",
        ".networks",
        ".aggregates",
        ".static_routes",
        ".is_default(",
    ];
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("crates/device/src"))
        .expect("crates/device/src exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    files.push(root.join("crates/core/src/propagate.rs"));
    let mut readers = std::collections::BTreeSet::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let file = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        readers.extend(
            fn_readers(&text, &READS)
                .into_iter()
                .map(|f| (file.to_string(), f)),
        );
    }
    readers
}

/// Names of the functions in `text` (above its `#[cfg(test)]` tail) whose
/// bodies contain one of `needles` outside a comment. A line belongs to the
/// last `fn` declared above it.
fn fn_readers(text: &str, needles: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut current: Option<String> = None;
    for raw in text.lines() {
        if raw.contains("#[cfg(test)]") {
            break;
        }
        let line = raw.split("//").next().unwrap_or("");
        if let Some(at) = line.find("fn ") {
            if at == 0 || line[..at].ends_with(' ') {
                let name: String = line[at + 3..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    current = Some(name);
                }
            }
        }
        if let Some(f) = &current {
            if needles.iter().any(|n| line.contains(n)) && !out.contains(f) {
                out.push(f.clone());
            }
        }
    }
    out
}

#[test]
fn prefix_dependent_inputs_are_covered_by_the_class_key() {
    // The sweep simulates one family per behaviour class and renames the
    // result to its twins (crates/core/src/classes.rs). That is sound only
    // while the class key covers every prefix-dependent input the
    // simulation reads. These are its readers today; each one's input is
    // in the key.
    const ALLOWED: [(&str, &str); 6] = [
        ("policy.rs", "clause_matches"),
        ("model.rs", "redistribution_admits"),
        ("propagate.rs", "mark_dirty"),
        ("propagate.rs", "seed"),
        ("propagate.rs", "refresh_aggregates_for"),
        ("propagate.rs", "suppression_cond"),
    ];
    let allowed: std::collections::BTreeSet<(String, String)> = ALLOWED
        .iter()
        .map(|(f, n)| (f.to_string(), n.to_string()))
        .collect();
    let found = prefix_input_readers(Path::new(env!("CARGO_MANIFEST_DIR")));
    let new: Vec<_> = found.difference(&allowed).collect();
    assert!(
        new.is_empty(),
        "new readers of a prefix-dependent input: {new:?}. Extend the behaviour-class \
         key in crates/core/src/classes.rs to cover the input they read, then add \
         them here"
    );
    let gone: Vec<_> = allowed.difference(&found).collect();
    assert!(
        gone.is_empty(),
        "allowlisted readers no longer read a prefix-dependent input: {gone:?}; \
         drop them here (and the input from the class key if nothing reads it)"
    );
}

/// The functions on the IS-IS build path — `IsisDb::build`,
/// `Simulation::new_igp_for` and what `Mode::Igp` runs — that read an IGP
/// input: the IGP block, an interface metric, or a router id. As
/// `(file, fn)` pairs.
fn igp_input_readers(root: &Path) -> std::collections::BTreeSet<(String, String)> {
    const READS: [&str; 4] = ["config.isis", ".link_metric", ".metric_from(", ".router_id"];
    let mut readers = std::collections::BTreeSet::new();
    for file in ["isis.rs", "propagate.rs", "network.rs", "topology.rs"] {
        let path = root.join("crates/core/src").join(file);
        let text = std::fs::read_to_string(&path).expect("readable source");
        readers.extend(
            fn_readers(&text, &READS)
                .into_iter()
                .map(|f| (file.to_string(), f)),
        );
    }
    readers
}

#[test]
fn igp_inputs_are_covered_by_the_carry_forward_rule() {
    // The daemon carries its IS-IS databases across a push when the push
    // is not IGP-affecting, adds or removes no device, and
    // `NetworkModel::same_igp_inputs` holds (crates/core/src/serve.rs).
    // That is sound only while those checks cover every input the IS-IS
    // build reads. These are its readers today, with the check covering
    // each one's input.
    const ALLOWED: [(&str, &str); 11] = [
        // The checks themselves.
        ("network.rs", "same_igp_inputs"),
        ("topology.rs", "same_graph"),
        // The IGP block: `igp_affecting` and `same_igp_inputs`.
        ("network.rs", "runs_isis"),
        ("network.rs", "isis_adjacency"),
        // Interface metrics: `Topology::same_graph`.
        ("network.rs", "igp_distances"),
        ("topology.rs", "from_configs"),
        ("topology.rs", "metric_from"),
        ("propagate.rs", "emit"),
        // Router ids: `same_igp_inputs`. (`refresh_aggregates_for` reads
        // one only in BGP mode.)
        ("propagate.rs", "seed"),
        ("propagate.rs", "deliver"),
        ("propagate.rs", "refresh_aggregates_for"),
    ];
    let allowed: std::collections::BTreeSet<(String, String)> = ALLOWED
        .iter()
        .map(|(f, n)| (f.to_string(), n.to_string()))
        .collect();
    let found = igp_input_readers(Path::new(env!("CARGO_MANIFEST_DIR")));
    let new: Vec<_> = found.difference(&allowed).collect();
    assert!(
        new.is_empty(),
        "new readers of an IGP input on the IS-IS build path: {new:?}. The daemon's \
         carry-forward rule (`NetworkModel::same_igp_inputs`, used by `handle_whatif` \
         in crates/core/src/serve.rs) must compare the input they read; extend it, \
         then add them here"
    );
    let gone: Vec<_> = allowed.difference(&found).collect();
    assert!(
        gone.is_empty(),
        "allowlisted readers no longer read an IGP input: {gone:?}; drop them here"
    );
}

#[test]
fn fn_reader_scan_attributes_lines_to_their_function() {
    let src = "pub fn a() {\n    x.networks.len(); // .aggregates\n}\nfn b(y: u8) {\n    // y.networks\n}\npub(crate) fn c() -> bool {\n    p.is_default()\n}\n#[cfg(test)]\nfn d() { z.networks }\n";
    assert_eq!(
        fn_readers(src, &[".networks", ".aggregates", ".is_default("]),
        vec!["a".to_string(), "c".to_string()]
    );
}
