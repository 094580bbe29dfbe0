//! Graph serialisation: text edge lists (SNAP style) and a compact binary
//! format for fast reloading of generated benchmark graphs.

use crate::{builder, Graph};
use pcd_util::{par, PcdError, VertexId, Weight};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

/// Largest vertex id a reader accepts. `u32::MAX` itself is reserved for
/// the [`pcd_util::NO_VERTEX`] sentinel, and `nv = max id + 1` must still
/// fit `u32`, so ids above this are rejected instead of being silently
/// truncated.
pub const MAX_VERTEX_ID: u64 = u32::MAX as u64 - 1;

/// Bytes [`read_edge_list`] takes from its input at a time.
const BLOCK: usize = 4 << 20;

/// Bytes a block's pieces span at least: a piece ends at the first line
/// end this far past its start.
const PIECE: usize = 1 << 20;

/// One parsed line: source, target and weight.
type Entry = (VertexId, VertexId, Weight);

/// Reads a whitespace-separated edge list: one `i j [w]` per line; `#` or
/// `%` lines are comments. Vertices are the ids as written; `nv` becomes
/// `max id + 1`.
///
/// Fields are separated by Unicode whitespace, so CRLF line ends are
/// accepted; ids and weights are `u64` literals with an optional `+`;
/// fields after the weight are ignored.
///
/// The text is read in blocks of 4 MiB, each ending at its last line end
/// (a line longer than a block grows it), so the reader never holds more
/// than about one block of text. A block is cut at line ends into pieces
/// of about 1 MiB, parsed on the caller's parallel region without
/// allocating per line; a block of one piece — a small file — is parsed
/// inline. The edges are collected in file order, and the text is freed
/// before the graph is built.
///
/// Untrusted input: ids above [`MAX_VERTEX_ID`] and weights that would
/// overflow the graph's total-weight accumulator return line-numbered
/// errors, invalid UTF-8 an I/O error; the first bad line in the file is
/// the one reported, and nothing in this path panics.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<Graph, PcdError> {
    let mut parsed = Parsed::default();
    let mut block = Vec::new();
    let mut spare = Vec::new();
    loop {
        // Fill the block to BLOCK bytes; a line longer than that doubles it.
        let want = if block.len() < BLOCK {
            BLOCK - block.len()
        } else {
            block.len()
        };
        let read = reader.by_ref().take(want as u64).read_to_end(&mut block);
        let eof = matches!(read, Ok(n) if n < want);
        let end = if eof {
            block.len()
        } else {
            block.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
        };
        // The lines completed before a failed read are checked first, as
        // a line-by-line reader would have.
        parsed.add(&block[..end], &mut spare)?;
        block.drain(..end);
        read?;
        if eof {
            break;
        }
    }
    drop((block, spare));
    let nv = if parsed.edges.is_empty() {
        0
    } else {
        parsed.max_id as usize + 1
    };
    builder::try_from_edges(nv, parsed.edges)
}

/// The edges of the lines read so far, and the sums their checks carry.
#[derive(Default)]
struct Parsed {
    edges: Vec<Entry>,
    total: Weight,
    max_id: VertexId,
    lines: usize,
}

impl Parsed {
    /// Parses `text`, whole lines, onto the edges. Its pieces are parsed
    /// side by side into `spare`'s buffers; if one stops at a bad line or
    /// the total overflows between them, the whole text is scanned again
    /// in order, which stops at its first error.
    fn add(&mut self, text: &[u8], spare: &mut Vec<Vec<Entry>>) -> Result<(), PcdError> {
        let pieces = pieces(text);
        if pieces.len() > 1 {
            let jobs: Vec<_> = pieces
                .into_iter()
                .map(|r| (r, spare.pop().unwrap_or_default()))
                .collect();
            let done = par::map_init(
                jobs,
                || (),
                |_, (r, mut out)| {
                    out.clear();
                    let s = scan(&text[r], 0, &mut out);
                    (out, s)
                },
            );
            // The running total after each piece; `None` once one stopped.
            let total = done.iter().try_fold(self.total, |t, (_, s)| match s.bad {
                None => t.checked_add(s.total),
                Some(_) => None,
            });
            for (out, s) in done {
                if total.is_some() {
                    self.edges.extend_from_slice(&out);
                    self.max_id = self.max_id.max(s.max_id);
                    self.lines += s.lines;
                }
                spare.push(out);
            }
            if let Some(total) = total {
                self.total = total;
                return Ok(());
            }
        }
        let s = scan(text, self.total, &mut self.edges);
        if let Some((k, bad)) = s.bad {
            return Err(bad.at(self.lines + k));
        }
        self.total = s.total;
        self.max_id = self.max_id.max(s.max_id);
        self.lines += s.lines;
        Ok(())
    }
}

/// Cuts `text` into consecutive pieces, each ending at the first line end
/// at least [`PIECE`] bytes past its start (the last at the text's end).
fn pieces(text: &[u8]) -> Vec<Range<usize>> {
    let mut cuts = Vec::new();
    let mut start = 0;
    while start < text.len() {
        let from = (start + PIECE).min(text.len()) - 1;
        let end = text[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |p| from + p + 1);
        cuts.push(start..end);
        start = end;
    }
    cuts
}

/// What [`scan`] found in its lines.
struct Scan {
    /// Lines scanned, not counting a bad one.
    lines: usize,
    /// The running total weight after them.
    total: Weight,
    /// The largest id on them (0 if none).
    max_id: VertexId,
    /// The first bad line, counted from the text's first, and its fault.
    bad: Option<(usize, Bad)>,
}

impl Scan {
    /// Adds a parsed line's edge, if any, to the running sums and `out`.
    fn take(&mut self, edge: Option<Entry>, out: &mut Vec<Entry>) -> Result<(), Bad> {
        if let Some((i, j, w)) = edge {
            self.total = self.total.checked_add(w).ok_or(Bad::Overflow)?;
            self.max_id = self.max_id.max(i).max(j);
            out.push((i, j, w));
        }
        Ok(())
    }
}

/// Parses the lines of `text` in order onto `out`, the running total
/// starting at `total`, up to the first bad line.
fn scan(text: &[u8], total: Weight, out: &mut Vec<Entry>) -> Scan {
    let mut s = Scan {
        lines: 0,
        total,
        max_id: 0,
        bad: None,
    };
    let mut rest = text;
    while !rest.is_empty() {
        let (edge, len) = next_line(rest);
        rest = &rest[len..];
        if let Err(bad) = edge.and_then(|edge| s.take(edge, out)) {
            s.bad = Some((s.lines, bad));
            break;
        }
        s.lines += 1;
    }
    s
}

/// Why a line was rejected.
#[derive(Debug, Clone, Copy)]
enum Bad {
    /// The line is not UTF-8.
    Utf8,
    /// The line has a source but no target.
    MissingTarget,
    /// The named field is not a `u64`.
    Unparsable(&'static str),
    /// The named id is above [`MAX_VERTEX_ID`].
    TooLarge(&'static str, u64),
    /// The line's weight overflows the running total.
    Overflow,
}

impl Bad {
    /// The error for this fault on 0-based line `line`: the one
    /// `BufRead::lines` gives for invalid UTF-8, else a parse error.
    fn at(self, line: usize) -> PcdError {
        match self {
            Bad::Utf8 => io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
            .into(),
            Bad::MissingTarget => PcdError::parse_at(line, "missing target"),
            Bad::Unparsable(what) => PcdError::parse_at(line, format!("unparsable {what}")),
            Bad::TooLarge(what, raw) => PcdError::parse_at(
                line,
                format!("{what} id {raw} exceeds the maximum {MAX_VERTEX_ID}"),
            ),
            Bad::Overflow => PcdError::parse_at(line, "total weight overflows the u64 accumulator"),
        }
    }
}

/// Parses the line at the start of `text`: `None` if it is blank or a
/// comment. Returns the outcome and the line's length, its `\n`
/// included. Fields are split at `char::is_whitespace`: one pass over
/// the bytes finds the first three fields of an all-ASCII line, and any
/// other line is checked as UTF-8 and split as a `str`.
fn next_line(text: &[u8]) -> (Result<Option<Entry>, Bad>, usize) {
    let mut fields = [0..0, 0..0, 0..0];
    let (mut found, mut p, mut ascii) = (0, 0, true);
    loop {
        while p < text.len() && text[p] != b'\n' && is_space(text[p]) {
            p += 1;
        }
        if p == text.len() || text[p] == b'\n' {
            break;
        }
        let start = p;
        while p < text.len() && !is_space(text[p]) {
            ascii &= text[p].is_ascii();
            p += 1;
        }
        if let Some(field) = fields.get_mut(found) {
            *field = start..p;
        }
        found += 1;
    }
    let len = (p + 1).min(text.len());
    let edge = if ascii {
        let found = found.min(fields.len());
        edge(fields[..found].iter().map(|f| &text[f.clone()]))
    } else {
        std::str::from_utf8(&text[..len])
            .map_err(|_| Bad::Utf8)
            .and_then(|line| edge(line.split_whitespace().map(str::as_bytes)))
    };
    (edge, len)
}

/// The ASCII bytes `char::is_whitespace` accepts: tab, LF, VT, FF, CR
/// and space.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The edge a line's fields give: source, target and an optional weight
/// (default 1), any further fields ignored; `None` for no fields or a
/// first field starting with `#` or `%`.
fn edge<'a>(mut fields: impl Iterator<Item = &'a [u8]>) -> Result<Option<Entry>, Bad> {
    let source = match fields.next() {
        Some(f) if !f.starts_with(b"#") && !f.starts_with(b"%") => f,
        _ => return Ok(None),
    };
    let i = vertex(source, "source")?;
    let j = vertex(fields.next().ok_or(Bad::MissingTarget)?, "target")?;
    let w = match fields.next() {
        Some(f) => number(f).ok_or(Bad::Unparsable("weight"))?,
        None => 1,
    };
    Ok(Some((i, j, w)))
}

/// A vertex id field, `what` naming it in errors.
fn vertex(field: &[u8], what: &'static str) -> Result<VertexId, Bad> {
    let raw = number(field).ok_or(Bad::Unparsable(what))?;
    if raw > MAX_VERTEX_ID {
        Err(Bad::TooLarge(what, raw))
    } else {
        Ok(raw as VertexId)
    }
}

/// A field as `u64::from_str` reads it: an optional `+`, then one or more
/// ASCII digits, the value at most `u64::MAX`.
fn number(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d < 10 {
            n.checked_mul(10)?.checked_add(u64::from(d))
        } else {
            None
        }
    })
}

/// Writes the graph as a weighted edge list (self-loops as `v v w`).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {} edges {}", g.num_vertices(), g.num_edges())?;
    for (i, j, wt) in g.edges() {
        writeln!(w, "{i} {j} {wt}")?;
    }
    for v in 0..g.num_vertices() as u32 {
        let s = g.self_loop(v);
        if s > 0 {
            writeln!(w, "{v} {v} {s}")?;
        }
    }
    w.flush()
}

const BIN_MAGIC: &[u8; 8] = b"PCDGRPH1";

/// Writes the compact binary format: magic, `nv`, `ne`, then the raw
/// `src`/`dst` (u32 LE) and `weight`/`self_loop` (u64 LE) arrays. Bucket
/// structure is rebuilt on load.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &x in g.srcs() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in g.dsts() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in g.weights() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in g.self_loops() {
        w.write_all(&x.to_le_bytes())?;
    }
    w.flush()
}

/// Reads the binary format written by [`write_binary`].
///
/// Generic readers have no length oracle, so the body is read
/// incrementally and a truncated stream surfaces as an error rather than
/// an over-allocation. When the total size *is* known (files — see
/// [`load`]), use [`read_binary_limited`], which cross-checks the header
/// against the real length before reading the body.
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, PcdError> {
    read_binary_limited(reader, None)
}

/// Bytes per edge in the binary body: `src` + `dst` (u32) and weight (u64).
const BIN_EDGE_BYTES: u64 = 4 + 4 + 8;
/// Bytes of magic + `nv` + `ne` preamble.
const BIN_PREAMBLE_BYTES: u64 = 8 + 8 + 8;

/// As [`read_binary`], with the total input length (including magic and
/// header) when known. A header whose `nv`/`ne` disagree with the
/// available bytes is rejected *before* any allocation, so a corrupt or
/// truncated `.bin` cannot trigger a multi-GB allocation attempt.
pub fn read_binary_limited<R: Read>(
    reader: R,
    available_bytes: Option<u64>,
) -> Result<Graph, PcdError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(PcdError::corrupt("bad magic"));
    }
    let nv = read_u64(&mut r)? as usize;
    let ne = read_u64(&mut r)? as usize;
    // Untrusted sizes: refuse anything that cannot fit u32 vertex ids
    // before allocating (a corrupt header must not trigger OOM).
    if nv > u32::MAX as usize || ne > (u32::MAX as usize) * 8 {
        return Err(PcdError::corrupt(format!(
            "implausible header sizes nv={nv} ne={ne}"
        )));
    }
    let need = (ne as u64)
        .checked_mul(BIN_EDGE_BYTES)
        .and_then(|b| b.checked_add((nv as u64).checked_mul(8)?))
        .ok_or_else(|| PcdError::corrupt("header sizes overflow the byte count"))?;
    if let Some(avail) = available_bytes {
        let body = avail.saturating_sub(BIN_PREAMBLE_BYTES);
        if need != body {
            return Err(PcdError::corrupt(format!(
                "header declares nv={nv} ne={ne} ({need} body bytes) but input has {body}"
            )));
        }
    }
    // Grow buffers only as data actually arrives, so a corrupt header
    // cannot force a huge upfront allocation even without a length oracle.
    let mut edges = Vec::new();
    let mut src = Vec::new();
    for _ in 0..ne {
        src.push(read_u32(&mut r)?);
    }
    let mut dst = Vec::new();
    for _ in 0..ne {
        dst.push(read_u32(&mut r)?);
    }
    for e in 0..ne {
        let (i, j) = (src[e], dst[e]);
        if i as usize >= nv || j as usize >= nv {
            return Err(PcdError::corrupt(format!(
                "edge {e} endpoint ({i}, {j}) out of range for {nv} vertices"
            )));
        }
        edges.push((i, j, read_u64(&mut r)?));
    }
    for v in 0..nv {
        let s = read_u64(&mut r)?;
        if s > 0 {
            edges.push((v as u32, v as u32, s));
        }
    }
    builder::try_from_edges(nv, edges)
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes the METIS / DIMACS-challenge graph format: a header
/// `nv ne fmt` with `fmt = 1` (edge weights), then one line per vertex
/// listing `neighbour weight` pairs with 1-based vertex ids, in the
/// graph's edge order (the [`crate::Csr`] row order). Self-loop weights
/// cannot be represented and are rejected.
fn write_metis<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    if g.self_loops().iter().any(|&s| s > 0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "METIS format cannot represent self-loops",
        ));
    }
    let csr = crate::Csr::from_graph(g);
    let mut w = BufWriter::new(writer);
    writeln!(w, "{} {} 1", g.num_vertices(), g.num_edges())?;
    for v in 0..g.num_vertices() as u32 {
        let mut first = true;
        for (u, wt) in csr.neighbors(v) {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{} {}", u + 1, wt)?;
            first = false;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads the METIS / DIMACS-challenge format (fmt codes 0 = unweighted
/// and 1/001 = edge-weighted are supported).
pub fn read_metis<R: Read>(reader: R) -> Result<Graph, PcdError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate().filter_map(|(n, l)| match l {
        Ok(s) => {
            let t = s.trim().to_string();
            if t.is_empty() || t.starts_with('%') {
                None
            } else {
                Some(Ok((n, t)))
            }
        }
        Err(e) => Some(Err(e)),
    });
    let (hline, header) = lines
        .next()
        .ok_or_else(|| PcdError::corrupt("empty METIS file"))??;
    let mut parts = header.split_whitespace();
    let nv: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| PcdError::parse_at(hline, "bad vertex count"))?;
    let ne: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| PcdError::parse_at(hline, "bad edge count"))?;
    if nv as u64 > MAX_VERTEX_ID + 1 {
        return Err(PcdError::parse_at(
            hline,
            format!("vertex count {nv} exceeds the u32 id space"),
        ));
    }
    let fmt = parts.next().unwrap_or("0");
    let weighted = matches!(fmt, "1" | "001" | "011");
    if matches!(fmt, "10" | "11" | "010" | "110" | "111") {
        return Err(PcdError::corrupt("METIS vertex weights are not supported"));
    }

    // `ne` is untrusted: cap the pre-allocation, the vector grows as real
    // data arrives.
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(ne.min(1 << 20));
    let mut total: Weight = 0;
    for (v, item) in (0u32..).zip(lines) {
        let (lineno, line) = item?;
        if v as usize >= nv {
            return Err(PcdError::parse_at(
                lineno,
                "more vertex lines than the header declares",
            ));
        }
        let mut it = line.split_whitespace();
        while let Some(tok) = it.next() {
            let u: u64 = tok
                .parse()
                .map_err(|_| PcdError::parse_at(lineno, "bad neighbour id"))?;
            if u == 0 || u as usize > nv {
                return Err(PcdError::parse_at(lineno, "neighbour id out of range"));
            }
            let wt: u64 = if weighted {
                it.next()
                    .ok_or_else(|| PcdError::parse_at(lineno, "missing edge weight"))?
                    .parse()
                    .map_err(|_| PcdError::parse_at(lineno, "bad edge weight"))?
            } else {
                1
            };
            let u = (u - 1) as u32;
            // Each edge appears in both endpoints' lines; keep one copy.
            if v <= u {
                total = total.checked_add(wt).ok_or_else(|| {
                    PcdError::parse_at(lineno, "total weight overflows the u64 accumulator")
                })?;
                edges.push((v, u, wt));
            }
        }
    }
    builder::try_from_edges(nv, edges)
}

/// Convenience: loads a graph from a path, dispatching on extension
/// (`.bin` → binary, `.metis`/`.graph` → METIS, anything else → edge
/// list). Binary reads are validated against the file's real length.
pub fn load(path: &Path) -> Result<Graph, PcdError> {
    let f = std::fs::File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => {
            let len = f.metadata().ok().map(|m| m.len());
            read_binary_limited(f, len)
        }
        Some("metis") | Some("graph") => read_metis(f),
        _ => read_edge_list(f),
    }
}

/// Convenience: saves a graph to a path (same dispatch as [`load`]).
pub fn save(g: &Graph, path: &Path) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => write_binary(g, f),
        Some("metis") | Some("graph") => write_metis(g, f),
        _ => write_edge_list(g, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> Graph {
        GraphBuilder::new(4)
            .add_edge(0, 1, 2)
            .add_edge(1, 2, 1)
            .add_edge(2, 3, 3)
            .add_self_loop(0, 4)
            .build()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight(), g.total_weight());
        assert_eq!(g2.self_loops(), g.self_loops());
    }

    #[test]
    fn binary_roundtrip_exact() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g2.srcs(), g.srcs());
        assert_eq!(g2.dsts(), g.dsts());
        assert_eq!(g2.weights(), g.weights());
        assert_eq!(g2.self_loops(), g.self_loops());
    }

    #[test]
    fn comments_and_default_weight() {
        let text = "# a comment\n% another\n0 1\n1 2 5\n\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn duplicate_lines_accumulate() {
        let text = "0 1\n1 0\n0 1 3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_weight(), 5);
    }

    #[test]
    fn malformed_line_errors() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 potato\n".as_bytes()).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMAGIC________".to_vec();
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn oversize_vertex_id_rejected_with_line() {
        let text = format!("0 1\n{} 1\n", u32::MAX as u64);
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The largest accepted id is MAX_VERTEX_ID == u32::MAX - 1; an id
        // one beyond (== NO_VERTEX) must fail, one below is parseable.
        assert!(read_edge_list(format!("{} 1\n", MAX_VERTEX_ID + 1).as_bytes()).is_err());
    }

    #[test]
    fn weight_overflow_rejected_with_line() {
        let text = format!("0 1 {}\n1 2 2\n", u64::MAX);
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn binary_header_checked_against_length() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // With the true length the read succeeds.
        assert!(read_binary_limited(&buf[..], Some(buf.len() as u64)).is_ok());
        // Lie about the header's edge count: rejected before any body read.
        let mut lying = buf.clone();
        lying[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary_limited(&lying[..], Some(lying.len() as u64)).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
        // A merely-too-large (but plausible) count is caught by the length
        // cross-check.
        let mut padded = buf.clone();
        padded[16..24].copy_from_slice(&1000u64.to_le_bytes());
        let err = read_binary_limited(&padded[..], Some(padded.len() as u64)).unwrap_err();
        assert!(err.to_string().contains("but input has"), "{err}");
    }

    #[test]
    fn truncated_binary_rejected() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in 0..buf.len() {
            let r = read_binary(&buf[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly parsed");
            let r = read_binary_limited(&buf[..cut], Some(cut as u64));
            assert!(
                r.is_err(),
                "limited prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn binary_out_of_range_endpoint_rejected() {
        // nv = 2, ne = 1, edge (7, 9): endpoints beyond nv must error, not
        // panic in the builder.
        let mut buf = Vec::new();
        buf.extend_from_slice(BIN_MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn metis_roundtrip() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 2)
            .add_edge(1, 2, 1)
            .add_edge(2, 3, 3)
            .build();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("4 3 1"), "{text}");
        let g2 = read_metis(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.total_weight(), g.total_weight());
    }

    #[test]
    fn metis_unweighted_read() {
        let text = "% comment\n3 2\n2\n1 3\n2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_weight(), 2);
    }

    #[test]
    fn metis_rejects_self_loops_on_write() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1)
            .add_self_loop(0, 1)
            .build();
        let mut buf = Vec::new();
        assert!(write_metis(&g, &mut buf).is_err());
    }

    #[test]
    fn metis_rejects_vertex_weights() {
        let text = "2 1 11\n1 1 2 1\n1 1 1\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn metis_out_of_range_neighbour() {
        let text = "2 1\n3\n\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
