//! The normalised verdict of a `hoyan sweep` report.
//!
//! A report is a header (`swept N prefixes at k=K in <wall>`) followed by
//! one line per fragile prefix (`  P: not K-failure resilient at ["A", "B"]`).
//! The normal form drops the wall-clock text and sorts the fragile lines, so
//! two runs of the same inputs — through the CLI or through the in-process
//! traced pipeline — must produce byte-identical normal forms, and the
//! digest of the normal form is what the benchmark compares.

use std::collections::{BTreeMap, BTreeSet};

/// A parsed sweep report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The `N` of the `swept N prefixes` header.
    pub prefixes: usize,
    /// The failure budget the report was computed at.
    pub k: u32,
    /// Fragile devices per prefix (prefixes without a line are absent).
    pub fragile: BTreeMap<String, BTreeSet<String>>,
    /// `QUARANTINED` lines: families the sweep gave up on. Any is a failure.
    pub quarantined: usize,
    normal: String,
}

impl Verdict {
    /// Parses the stdout of `hoyan sweep`. Errors name the offending line.
    pub fn parse(report: &str) -> Result<Verdict, String> {
        let mut lines = report.lines();
        let header = lines.next().ok_or("empty report")?;
        let rest = header
            .strip_prefix("swept ")
            .ok_or_else(|| format!("unexpected header `{header}`"))?;
        let (count, rest) = rest
            .split_once(" prefixes at k=")
            .ok_or_else(|| format!("unexpected header `{header}`"))?;
        let prefixes: usize = count
            .parse()
            .map_err(|_| format!("bad prefix count in `{header}`"))?;
        let k: u32 = rest
            .split_whitespace()
            .next()
            .and_then(|k| k.parse().ok())
            .ok_or_else(|| format!("bad k in `{header}`"))?;
        let marker = format!(": not {k}-failure resilient at ");
        let mut fragile = BTreeMap::new();
        let mut kept = Vec::new();
        let mut quarantined = 0;
        for line in lines {
            let line = line.trim();
            if line.starts_with("QUARANTINED") {
                quarantined += 1;
                kept.push(line.to_string());
            } else if let Some((prefix, names)) = line.split_once(&marker) {
                let names = names
                    .strip_prefix('[')
                    .and_then(|n| n.strip_suffix(']'))
                    .ok_or_else(|| format!("unexpected device list in `{line}`"))?;
                let devices: BTreeSet<String> = names
                    .split(", ")
                    .filter(|n| !n.is_empty())
                    .map(|n| n.trim_matches('"').to_string())
                    .collect();
                fragile.insert(prefix.to_string(), devices);
                kept.push(line.to_string());
            }
            // Anything else (quarantine preamble, modular summary) carries
            // no verdict; a quarantine is already counted by its own line.
        }
        kept.sort();
        let mut normal = format!("swept {prefixes} prefixes at k={k}\n");
        for line in &kept {
            normal.push_str(line);
            normal.push('\n');
        }
        Ok(Verdict {
            prefixes,
            k,
            fragile,
            quarantined,
            normal,
        })
    }

    /// The normal form: header without timing, fragile lines sorted.
    pub fn normal_form(&self) -> &str {
        &self.normal
    }

    /// FNV-1a (64-bit) of the normal form, as 16 hex digits.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.normal.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Whether the report lists `device` as fragile for `prefix`.
    pub fn is_fragile(&self, prefix: &str, device: &str) -> bool {
        self.fragile
            .get(prefix)
            .is_some_and(|devices| devices.contains(device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "swept 3 prefixes at k=1 in 8.184101511s\n  \
        10.0.1.0/24: not 1-failure resilient at [\"DC0x0\", \"PE0x0\"]\n  \
        10.0.0.0/24: not 1-failure resilient at [\"CR1x0\"]\n";

    #[test]
    fn timing_text_and_line_order_do_not_reach_the_digest() {
        let a = Verdict::parse(REPORT).unwrap();
        let shuffled = "swept 3 prefixes at k=1 in 12ms\n  \
            10.0.0.0/24: not 1-failure resilient at [\"CR1x0\"]\n  \
            10.0.1.0/24: not 1-failure resilient at [\"DC0x0\", \"PE0x0\"]\n";
        let b = Verdict::parse(shuffled).unwrap();
        assert_eq!(a.normal_form(), b.normal_form());
        assert_eq!(a.digest(), b.digest());
        assert!(!a.normal_form().contains("8.18"));
        assert_eq!(a.prefixes, 3);
        assert_eq!(a.k, 1);
    }

    #[test]
    fn a_changed_verdict_changes_the_digest() {
        let a = Verdict::parse(REPORT).unwrap();
        let fewer = REPORT.replace("\"DC0x0\", ", "");
        assert_ne!(a.digest(), Verdict::parse(&fewer).unwrap().digest());
        let other_count = REPORT.replace("swept 3", "swept 4");
        assert_ne!(a.digest(), Verdict::parse(&other_count).unwrap().digest());
    }

    #[test]
    fn fragile_lookup_and_quarantine_count() {
        let v = Verdict::parse(REPORT).unwrap();
        assert!(v.is_fragile("10.0.1.0/24", "PE0x0"));
        assert!(!v.is_fragile("10.0.1.0/24", "CR1x0"));
        assert!(!v.is_fragile("10.9.9.0/24", "CR1x0"));
        assert_eq!(v.quarantined, 0);
        let q = format!("{REPORT}1 family(ies) quarantined (reports above exclude them):\n  QUARANTINED 10.0.2.0/24: over budget\n");
        assert_eq!(Verdict::parse(&q).unwrap().quarantined, 1);
    }

    #[test]
    fn malformed_reports_are_errors_not_empty_verdicts() {
        assert!(Verdict::parse("").is_err());
        assert!(Verdict::parse("error: cannot read dir").is_err());
        assert!(Verdict::parse("swept many prefixes at k=1 in 1s").is_err());
    }
}
