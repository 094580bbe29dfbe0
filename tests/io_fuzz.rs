//! Robustness: arbitrary bytes fed to every reader must return an error
//! or a valid graph — never panic. A curated corpus of known-corrupt
//! inputs additionally pins down that each is *rejected* (not silently
//! accepted with mangled data), and the edge-list reader must agree with
//! a line-by-line reference reader on every input: the same graph, or
//! the same error at the same line.

use parcomm::graph::io::{self, MAX_VERTEX_ID};
use parcomm::graph::{builder, Graph};
use parcomm::util::prop::{self, check};
use parcomm::util::rng::ChaCha8Rng;
use parcomm::util::{PcdError, VertexId, Weight};
use std::io::{BufRead, BufReader, Read};

/// A string of up to `max_len` characters drawn from `alphabet`.
fn text(rng: &mut ChaCha8Rng, alphabet: &str, max_len: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    prop::vec(rng, 0..max_len + 1, |r| chars[r.gen_range(0..chars.len())])
        .into_iter()
        .collect()
}

/// Edge-list inputs that must all produce `Err`, with the reason they are
/// corrupt. Every case here was a silent-truncation or panic path before
/// the readers were hardened.
#[test]
fn corrupt_edge_list_corpus_rejected() {
    let corpus: &[(&str, &str)] = &[
        (
            "4294967295 0\n",
            "id == u32::MAX collides with the NO_VERTEX sentinel",
        ),
        (
            "4294967294 0\n4294967295 1\n",
            "second line overflows the id space",
        ),
        ("99999999999999 3\n", "id far beyond u32"),
        ("-1 2\n", "negative id"),
        ("0 1 -5\n", "negative weight"),
        ("0 1 99999999999999999999\n", "weight beyond u64"),
        (
            "0 1 18446744073709551615\n1 2 18446744073709551615\n",
            "total weight wraps the u64 accumulator",
        ),
        ("0\n", "missing target id"),
        ("zero one\n", "non-numeric ids"),
    ];
    for &(text, why) in corpus {
        let r = io::read_edge_list(text.as_bytes());
        assert!(r.is_err(), "expected rejection ({why}): {text:?}");
    }
}

/// Line numbers in edge-list errors must point at the offending line, not
/// the start of the file.
#[test]
fn corrupt_edge_list_errors_carry_line_numbers() {
    let text = "0 1\n1 2\n# fine so far\n4294967295 7\n";
    let err = io::read_edge_list(text.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("line 4"), "{err}");
}

/// Binary inputs that must all produce `Err` before any large allocation.
#[test]
fn corrupt_binary_corpus_rejected() {
    let header = |nv: u64, ne: u64| {
        let mut b = b"PCDGRPH1".to_vec();
        b.extend_from_slice(&nv.to_le_bytes());
        b.extend_from_slice(&ne.to_le_bytes());
        b
    };
    // Wrong magic.
    assert!(io::read_binary(&b"NOTAGRPH\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"[..]).is_err());
    // Truncated to just the magic.
    assert!(io::read_binary(&b"PCDGRPH1"[..]).is_err());
    // Headers declaring absurd sizes with no body behind them: with a
    // length oracle these are rejected up front, without one the
    // incremental read hits EOF — either way, Err and no multi-GB Vec.
    for (nv, ne) in [(u64::MAX, 0), (0, u64::MAX), (1 << 40, 1 << 40), (10, 10)] {
        let buf = header(nv, ne);
        assert!(io::read_binary(&buf[..]).is_err(), "nv={nv} ne={ne}");
        assert!(
            io::read_binary_limited(&buf[..], Some(buf.len() as u64)).is_err(),
            "limited nv={nv} ne={ne}"
        );
    }
}

/// METIS inputs that must all produce `Err`.
#[test]
fn corrupt_metis_corpus_rejected() {
    let corpus: &[(&str, &str)] = &[
        ("", "empty file"),
        ("abc def\n", "non-numeric header"),
        ("2 1\n3\n\n", "neighbour id beyond nv"),
        ("2 1\n0\n\n", "neighbour id 0 in a 1-based format"),
        ("1 0\n1\n1\n", "more vertex lines than the header declares"),
        ("2 1 11\n1 1 2 1\n1 1 1\n", "vertex weights unsupported"),
        ("2 1 1\n2\n1\n", "weighted format but weight missing"),
        ("4294967296 1\n\n", "vertex count beyond the u32 id space"),
    ];
    for &(text, why) in corpus {
        let r = io::read_metis(text.as_bytes());
        assert!(r.is_err(), "expected rejection ({why}): {text:?}");
    }
}

#[test]
fn edge_list_reader_never_panics() {
    check(128, |rng| {
        let bytes = prop::vec(rng, 0..512, |r| r.next_u32() as u8);
        if let Ok(g) = io::read_edge_list(&bytes[..]) {
            assert_eq!(g.validate(), Ok(()));
        }
    });
}

#[test]
fn binary_reader_never_panics() {
    check(128, |rng| {
        let bytes = prop::vec(rng, 0..512, |r| r.next_u32() as u8);
        if let Ok(g) = io::read_binary(&bytes[..]) {
            assert_eq!(g.validate(), Ok(()));
        }
    });
}

#[test]
fn metis_reader_never_panics() {
    check(128, |rng| {
        let bytes = prop::vec(rng, 0..512, |r| r.next_u32() as u8);
        if let Ok(g) = io::read_metis(&bytes[..]) {
            assert_eq!(g.validate(), Ok(()));
        }
    });
}

#[test]
fn text_like_edge_lists_never_panic() {
    check(128, |rng| {
        let s = text(rng, "0123456789 \n#%.abcdefghijklmnopqrstuvwxyz-", 256);
        if let Ok(g) = io::read_edge_list(s.as_bytes()) {
            assert_eq!(g.validate(), Ok(()));
        }
    });
}

#[test]
fn metis_with_plausible_headers_never_panics() {
    check(128, |rng| {
        let (nv, ne) = (rng.gen_range(0u32..20), rng.gen_range(0u32..40));
        let body = text(rng, "0123456789 \n", 128);
        let text = format!("{nv} {ne} 1\n{body}");
        if let Ok(g) = io::read_metis(text.as_bytes()) {
            assert_eq!(g.validate(), Ok(()));
        }
    });
}

/// The edge-list reader as it was before it read in blocks: one `String`
/// per line through `BufRead::lines`, parsed with `str` methods. The
/// block reader must accept the same language and report the same first
/// error.
fn reference_read_edge_list<R: Read>(reader: R) -> Result<Graph, PcdError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut total: Weight = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>, what: &str| -> Result<u64, PcdError> {
            s.ok_or_else(|| PcdError::parse_at(lineno, format!("missing {what}")))?
                .parse::<u64>()
                .map_err(|_| PcdError::parse_at(lineno, format!("unparsable {what}")))
        };
        let id = |raw: u64, what: &str| -> Result<VertexId, PcdError> {
            if raw > MAX_VERTEX_ID {
                Err(PcdError::parse_at(
                    lineno,
                    format!("{what} id {raw} exceeds the maximum {MAX_VERTEX_ID}"),
                ))
            } else {
                Ok(raw as VertexId)
            }
        };
        let i = id(parse(it.next(), "source")?, "source")?;
        let j = id(parse(it.next(), "target")?, "target")?;
        let w = match it.next() {
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| PcdError::parse_at(lineno, "unparsable weight"))?,
            None => 1,
        };
        total = total.checked_add(w).ok_or_else(|| {
            PcdError::parse_at(lineno, "total weight overflows the u64 accumulator")
        })?;
        max_id = max_id.max(i).max(j);
        edges.push((i, j, w));
    }
    let nv = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    builder::try_from_edges(nv, edges)
}

/// Everything a graph stores, or the error's text.
type Outcome = Result<(usize, Weight, [Vec<u64>; 6]), String>;

fn outcome(r: Result<Graph, PcdError>) -> Outcome {
    let g = r.map_err(|e| e.to_string())?;
    let (nv, total) = (g.num_vertices(), g.total_weight());
    let p = g.into_parts();
    let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
    let size = |v: &[usize]| v.iter().map(|&x| x as u64).collect();
    Ok((
        nv,
        total,
        [
            wide(&p.src),
            wide(&p.dst),
            p.weight,
            size(&p.bucket_begin),
            size(&p.bucket_end),
            p.self_loop,
        ],
    ))
}

/// A reader that hands out one byte per `read` call.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Asserts that both readers give the same outcome on `text`, read whole
/// and, when `one_byte`, one byte per call. Returns the outcome.
fn assert_agrees(text: &[u8], one_byte: bool) -> Outcome {
    let want = outcome(reference_read_edge_list(text));
    let got = outcome(io::read_edge_list(text));
    assert!(got == want, "readers disagree: {got:?} vs {want:?}");
    if one_byte {
        let got = outcome(io::read_edge_list(OneByte(text)));
        assert!(got == want, "one byte per read: {got:?} vs {want:?}");
    }
    want
}

/// One field: usually a small id or weight, sometimes one of the edge
/// cases of `u64` parsing and the id range. (No large id that is valid:
/// `nv` would follow it, and the builder's per-vertex arrays with it.)
fn field(rng: &mut ChaCha8Rng) -> String {
    const ODD: &[&str] = &[
        "+7",
        "007",
        "+",
        "-1",
        "x",
        "1a",
        "４", // a full-width digit is not an ASCII digit
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "#",
        "%",
    ];
    if rng.gen_range(0..12u32) == 0 {
        ODD[rng.gen_range(0..ODD.len())].to_string()
    } else {
        rng.gen_range(0..24u32).to_string()
    }
}

/// One separator: ASCII and Unicode whitespace, now and then a character
/// that is not whitespace.
fn separator(rng: &mut ChaCha8Rng) -> &'static str {
    const SEPS: &[&str] = &[
        " ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{3000}", "\u{2028}",
        "\u{85}", "\u{1c}",
    ];
    SEPS[rng.gen_range(0..SEPS.len())]
}

/// A random edge-list text: edge lines with one to four fields, comments,
/// blank lines, CRLF ends, a missing final newline, and now and then a
/// byte that is not UTF-8.
fn random_edge_list(rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut text = Vec::new();
    for _ in 0..rng.gen_range(0..12usize) {
        if rng.gen_range(0..3u32) == 0 {
            text.extend_from_slice(separator(rng).as_bytes());
        }
        match rng.gen_range(0..10u32) {
            0 => text.extend_from_slice(b"# comment \xe2\x80\x94 text"),
            1 => text.extend_from_slice(b"% 1 2 3"),
            2 => {}
            _ => {
                for k in 0..rng.gen_range(1..5usize) {
                    if k > 0 {
                        text.extend_from_slice(separator(rng).as_bytes());
                    }
                    text.extend_from_slice(field(rng).as_bytes());
                }
            }
        }
        if rng.gen_range(0..40u32) == 0 {
            let bad: &[u8] = [&b"\xff"[..], b"\xc3", b"\xe3\x80"][rng.gen_range(0..3usize)];
            let at = rng.gen_range(0..=text.len());
            text.splice(at..at, bad.iter().copied());
        }
        text.extend_from_slice(if rng.gen_range(0..4u32) == 0 {
            b"\r\n"
        } else {
            b"\n"
        });
    }
    if rng.gen_range(0..3u32) == 0 {
        text.pop();
    }
    text
}

#[test]
fn block_reader_agrees_with_the_line_reader() {
    let (mut graphs, mut errors) = (0, 0);
    check(3000, |rng| {
        let text = random_edge_list(rng);
        match assert_agrees(&text, rng.gen_range(0..4u32) == 0) {
            Ok(_) => graphs += 1,
            Err(_) => errors += 1,
        }
    });
    // Both outcomes must be common, or one of them goes untested.
    assert!(
        graphs > 300 && errors > 300,
        "{graphs} graphs, {errors} errors"
    );
}

/// The reader's block and piece sizes, from `read_edge_list`'s doc: the
/// large cases place their features around them.
const BLOCK: usize = 4 << 20;
const PIECE: usize = 1 << 20;

/// Appends valid lines until `text` is at least `len` bytes long: edge
/// lines over vertices below 5 000 with weights 1–9, each followed by a
/// 100-byte comment, which keeps the large cases quick to parse.
fn fill_to(text: &mut Vec<u8>, len: usize, rng: &mut ChaCha8Rng) {
    let comment = format!("#{}\n", "-".repeat(98));
    while text.len() < len {
        let (i, j, w) = (
            rng.gen_range(0..5000u32),
            rng.gen_range(0..5000u32),
            rng.gen_range(1..10u64),
        );
        text.extend_from_slice(format!("{i} {j} {w}\n").as_bytes());
        text.extend_from_slice(comment.as_bytes());
    }
}

/// The 1-based line number of the line starting at byte `at`.
fn line_at(text: &[u8], at: usize) -> usize {
    text[..at].iter().filter(|&&b| b == b'\n').count() + 1
}

#[test]
fn inputs_larger_than_a_block_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let rng = &mut rng;

    // A line straddling the first block boundary; a comment and an edge
    // line each longer than a whole block; no final newline.
    let mut text = Vec::new();
    fill_to(&mut text, BLOCK - 200, rng);
    text.push(b'#');
    text.resize(BLOCK - 5, b'-');
    text.push(b'\n');
    text.extend_from_slice(b"4321 1234 5\n");
    fill_to(&mut text, BLOCK + PIECE, rng);
    text.extend_from_slice(b"# ");
    text.resize(text.len() + BLOCK + 10, b'=');
    text.extend_from_slice(b"\n7\t8 +");
    text.resize(text.len() + BLOCK, b'0');
    text.extend_from_slice(b"2\r\n");
    fill_to(&mut text, 3 * BLOCK, rng);
    text.extend_from_slice(b"1 2 3");
    assert!(assert_agrees(&text, false).is_ok());

    // An overflow in an earlier piece than a parse error in the same
    // block: the pieces' own totals fit, only their sum overflows, and at
    // the heavy line (the filler weighs far less than 10⁹ in all).
    let huge = format!("1 2 {}\n", u64::MAX - 1_000_000_000);
    let heavy = b"3 4 10000000000\n";
    let mut text = Vec::new();
    fill_to(&mut text, PIECE / 2, rng);
    text.extend_from_slice(huge.as_bytes());
    fill_to(&mut text, 3 * PIECE / 2, rng);
    let overflow = text.len();
    text.extend_from_slice(heavy);
    fill_to(&mut text, 5 * PIECE / 2, rng);
    text.extend_from_slice(b"5 x\n");
    fill_to(&mut text, BLOCK + PIECE, rng);
    let err = assert_agrees(&text, false).unwrap_err();
    assert!(err.starts_with(&format!("line {}: total weight", line_at(&text, overflow))));

    // The reverse: the parse error comes first, in an earlier piece.
    let mut text = Vec::new();
    fill_to(&mut text, PIECE / 2, rng);
    text.extend_from_slice(huge.as_bytes());
    fill_to(&mut text, 3 * PIECE / 2, rng);
    let unparsable = text.len();
    text.extend_from_slice(b"5 x\n");
    fill_to(&mut text, 5 * PIECE / 2, rng);
    text.extend_from_slice(heavy);
    fill_to(&mut text, BLOCK + PIECE, rng);
    let err = assert_agrees(&text, false).unwrap_err();
    assert!(err.starts_with(&format!(
        "line {}: unparsable target",
        line_at(&text, unparsable)
    )));

    // An overflow whose weights sit in different blocks, then the same
    // text with a light line there, so that the invalid UTF-8 after it
    // is the first error; read one byte per call.
    let mut text = huge.into_bytes();
    fill_to(&mut text, BLOCK + PIECE, rng);
    let overflow = text.len();
    text.extend_from_slice(heavy);
    text.extend_from_slice(b"\xff\n");
    let err = assert_agrees(&text, false).unwrap_err();
    assert!(err.starts_with(&format!("line {}: total weight", line_at(&text, overflow))));
    text.truncate(overflow);
    text.extend_from_slice(b"3 4 5\n\xff\n");
    let err = assert_agrees(&text, false).unwrap_err();
    assert!(err.contains("UTF-8"), "{err}");
}
