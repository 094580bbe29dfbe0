//! Property tests for the `pcd-trace` exporters.
//!
//! Inputs are integer seeds with adversarial label text derived from a
//! seeded LCG.

use parcomm::trace::{metrics_json, prometheus_text, Registry};
use parcomm::util::prop::check;

/// Characters a hostile label value might contain: escapes, quotes,
/// newlines, exposition-format structure, multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'B', '7', '_', '"', '\\', '\n', '{', '}', ',', '=', ' ', 'é', '≤',
];

fn lcg_string(mut seed: u64, len: usize) -> String {
    let mut out = String::new();
    for _ in 0..len {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(PALETTE[(seed >> 33) as usize % PALETTE.len()]);
    }
    out
}

/// Unescapes a Prometheus label value (`\\`, `\"`, `\n`).
fn unescape(escaped: &str) -> String {
    let mut out = String::new();
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => panic!("invalid escape \\{other:?} in {escaped:?}"),
        }
    }
    out
}

/// Quotes not preceded by an odd run of backslashes — i.e. string
/// delimiters, not escaped quote characters.
fn count_unescaped_quotes(s: &str) -> usize {
    let mut count = 0;
    let mut backslashes = 0;
    for c in s.chars() {
        match c {
            '"' => {
                if backslashes % 2 == 0 {
                    count += 1;
                }
                backslashes = 0;
            }
            '\\' => backslashes += 1,
            _ => backslashes = 0,
        }
    }
    count
}

#[test]
fn prometheus_label_values_round_trip_the_escaping() {
    check(256, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let len = rng.gen_range(0usize..24);
        let value = lcg_string(seed, len);
        let mut reg = Registry::new();
        let c = reg.counter("m", "", &[("k", &value)]);
        reg.inc(c, 1);
        let text = prometheus_text(&reg);
        // The sample is exactly one line: escaping must have removed every
        // raw newline the value contained.
        let line = text
            .lines()
            .find(|l| l.starts_with("m{"))
            .expect("sample line present");
        let escaped = line
            .strip_prefix("m{k=\"")
            .and_then(|l| l.strip_suffix("\"} 1"))
            .expect("sample line has the expected shape");
        assert_eq!(unescape(escaped), value);
    });
}

#[test]
fn prometheus_output_is_independent_of_label_registration_order() {
    check(256, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let v1 = lcg_string(seed, 6);
        let v2 = lcg_string(seed ^ 0xdead_beef, 6);
        let labels_ab = [("alpha", v1.as_str()), ("zeta", v2.as_str())];
        let labels_ba = [("zeta", v2.as_str()), ("alpha", v1.as_str())];
        let mut reg_ab = Registry::new();
        let mut reg_ba = Registry::new();
        let ca = reg_ab.counter("m", "h", &labels_ab);
        let cb = reg_ba.counter("m", "h", &labels_ba);
        reg_ab.inc(ca, seed % 97);
        reg_ba.inc(cb, seed % 97);
        assert_eq!(prometheus_text(&reg_ab), prometheus_text(&reg_ba));
        assert_eq!(metrics_json(&reg_ab, "l", 0), metrics_json(&reg_ba, "l", 0));
    });
}

#[test]
fn prometheus_never_emits_a_non_finite_sample() {
    check(256, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let mut reg = Registry::new();
        let g = reg.gauge("g", "", &[]);
        let poison = match seed % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => seed as f64 * 1e-3,
        };
        reg.set(g, poison);
        let h = reg.histogram("h", "", &[], &[1e-3, 1.0, 1e3]);
        reg.observe(h, poison);
        reg.observe(h, (seed % 1000) as f64);
        let text = prometheus_text(&reg);
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let value = line.rsplit(' ').next().unwrap();
            let parsed: f64 = value
                .parse()
                .unwrap_or_else(|e| panic!("unparseable sample {line:?}: {e}"));
            assert!(parsed.is_finite(), "non-finite sample in {line:?}");
        }
    });
}

#[test]
fn json_document_quotes_balance_under_hostile_labels() {
    check(256, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let len = rng.gen_range(0usize..24);
        let value = lcg_string(seed, len);
        let mut reg = Registry::new();
        let c = reg.counter("m", "", &[("k", &value)]);
        reg.inc(c, 3);
        let doc = metrics_json(&reg, &value, 7);
        // Structural sanity an escaping bug would break: unescaped quotes
        // are balanced, raw newlines appear only at the pretty-printer's
        // line breaks (never mid-string), and no NaN/Infinity literal
        // sneaks in (strict JSON has none).
        assert_eq!(
            count_unescaped_quotes(&doc) % 2,
            0,
            "unbalanced quotes in {}",
            doc
        );
        assert!(!doc.contains("NaN") && !doc.contains("Infinity"));
        for line in doc.lines() {
            assert_eq!(
                count_unescaped_quotes(line) % 2,
                0,
                "string spans a line break: {}",
                line
            );
        }
    });
}
