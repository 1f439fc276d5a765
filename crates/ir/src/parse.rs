//! Parser for the textual loop format produced by [`LoopIr`]'s `Display`.
//!
//! The format is lossless: `parse_loop(&lp.to_string()) == lp` for every
//! valid loop (a property the test suite checks over random loops). The
//! parser accepts exactly what `Display` prints, modulo whitespace, `//`
//! comment lines and the spelling of numbers: the header first, then at
//! most one `live_in` line, the references, the instructions and the
//! dependences, each argument in its printed place, and nothing after the
//! closing `}`. No text is skipped or silently overridden. It lets tools
//! keep loops as text and makes hand-written test inputs easy:
//!
//! ```text
//! loop example {
//!   live_in g0
//!   m0: "a[i]" [int affine(base=0x1000, stride=4) 4B]
//!   m1: "y[i]" [int affine(base=0x200000, stride=4) 4B]
//!   i0: ld g1 = @m0
//!   i1: add g2 = g1, g0
//!   i2: st g2 @m1
//! }
//! ```
//!
//! One pass over borrowed slices, splitting by bytes: no token is copied
//! and nothing is formatted unless there is an error. An instruction line
//! allocates nothing: its source operands are stored inline, up to three.

use std::error::Error;
use std::fmt;

use crate::error::IrError;
use crate::inst::{Inst, InstId, Opcode, Operands, SrcOperand};
use crate::loop_ir::{LoopIr, MemDep, MemDepKind};
use crate::memref::{
    AccessPattern, CacheLevel, DataClass, LatencyHint, MemRefId, MemoryRef, PrefetchPlan,
};
use crate::reg::{RegClass, VReg};

/// Error from [`parse_loop`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line could not be parsed; carries the 1-based line number and a
    /// description.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The text parsed but the loop failed validation.
    Invalid(IrError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseError::Invalid(e) => write!(f, "invalid loop: {e}"),
        }
    }
}

impl Error for ParseError {}

impl From<IrError> for ParseError {
    fn from(e: IrError) -> Self {
        ParseError::Invalid(e)
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        message: message.into(),
    }
}

/// `str::trim`, by bytes while the ends are ASCII.
fn trim(s: &str) -> &str {
    let space = |c: u8| matches!(c, b' ' | b'\t'..=b'\r');
    let start = s.bytes().position(|c| !space(c)).unwrap_or(s.len());
    let end = s.bytes().rposition(|c| !space(c)).map_or(start, |e| e + 1);
    let t = &s[start..end];
    match (t.bytes().next(), t.bytes().last()) {
        (Some(a), Some(b)) if !(a.is_ascii() && b.is_ascii()) => t.trim(),
        _ => t,
    }
}

/// The text before and after the first `sep` byte.
fn split_byte(s: &str, sep: u8) -> Option<(&str, &str)> {
    let at = s.bytes().position(|c| c == sep)?;
    Some((&s[..at], &s[at + 1..]))
}

fn parse_u64(line: usize, s: &str) -> Result<u64, ParseError> {
    let s = trim(s);
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| err(line, format!("bad hex '{s}': {e}")))
    } else {
        s.parse()
            .map_err(|e| err(line, format!("bad number '{s}': {e}")))
    }
}

fn parse_u32(line: usize, s: &str) -> Result<u32, ParseError> {
    u32::try_from(parse_u64(line, s)?).map_err(|e| err(line, format!("bad number '{s}': {e}")))
}

fn parse_i64(line: usize, s: &str) -> Result<i64, ParseError> {
    trim(s)
        .parse()
        .map_err(|e| err(line, format!("bad integer '{s}': {e}")))
}

fn parse_vreg(line: usize, s: &str) -> Result<VReg, ParseError> {
    parse_trimmed_vreg(line, trim(s))
}

fn parse_trimmed_vreg(line: usize, s: &str) -> Result<VReg, ParseError> {
    let class = match s.as_bytes().first() {
        Some(b'g') => RegClass::Gr,
        Some(b'f') => RegClass::Fr,
        Some(b'p') => RegClass::Pr,
        _ => return Err(err(line, format!("bad register '{s}'"))),
    };
    let idx: u32 = s[1..]
        .parse()
        .map_err(|e| err(line, format!("bad register index '{s}': {e}")))?;
    Ok(VReg::new(class, idx))
}

/// `gK` or `gK[-omega]`, nothing after the `]`.
fn parse_operand(line: usize, s: &str) -> Result<SrcOperand, ParseError> {
    let s = trim(s);
    let Some(open) = s
        .as_bytes()
        .windows(2)
        .position(|w| w[0] == b'[' && w[1] == b'-')
    else {
        return Ok(SrcOperand::now(parse_trimmed_vreg(line, s)?));
    };
    let close = s
        .rfind(']')
        .filter(|&c| c >= open + 2)
        .ok_or_else(|| err(line, format!("unclosed carried operand '{s}'")))?;
    let reg = parse_vreg(line, &s[..open])?;
    let omega: u32 = s[open + 2..close]
        .parse()
        .map_err(|e| err(line, format!("bad omega in '{s}': {e}")))?;
    if close + 1 < s.len() {
        return Err(err(line, format!("unexpected text after ']' in '{s}'")));
    }
    Ok(SrcOperand::carried(reg, omega))
}

fn parse_memref_id(line: usize, s: &str) -> Result<MemRefId, ParseError> {
    let s = trim(s);
    let rest = s
        .strip_prefix('m')
        .ok_or_else(|| err(line, format!("bad memref id '{s}'")))?;
    let idx: u32 = rest
        .parse()
        .map_err(|e| err(line, format!("bad memref id '{s}': {e}")))?;
    Ok(MemRefId(idx))
}

/// `key=value` or `key~value` split at its separator, `=` first; a bare
/// word has no separator and an empty value.
fn key_value(part: &str) -> (&str, Option<char>, &str) {
    for sep in ['=', '~'] {
        if let Some((k, v)) = part.split_once(sep) {
            return (trim(k), Some(sep), trim(v));
        }
    }
    (part, None, "")
}

/// The arguments of a `kind(...)` call, taken in the order `Display`
/// prints them.
struct Args<'a> {
    line: usize,
    text: &'a str,
    parts: std::str::Split<'a, char>,
    tail: &'a str,
}

impl<'a> Args<'a> {
    /// Splits `kind(args)tail` at its first `(` and last `)`.
    fn of(line: usize, s: &'a str) -> Result<(&'a str, Self), ParseError> {
        let open = s
            .find('(')
            .ok_or_else(|| err(line, format!("expected '(' in '{s}'")))?;
        let close = open
            + s[open..]
                .rfind(')')
                .ok_or_else(|| err(line, format!("expected ')' in '{s}'")))?;
        let text = &s[open + 1..close];
        let (parts, tail) = (text.split(','), &s[close + 1..]);
        Ok((
            &s[..open],
            Args {
                line,
                text,
                parts,
                tail,
            },
        ))
    }

    fn next(&mut self) -> Option<&'a str> {
        self.parts.next().map(trim)
    }

    /// The value of the next argument, which must be written `key`, `sep`,
    /// value.
    fn take(&mut self, key: &str, sep: char) -> Result<&'a str, ParseError> {
        let part = self.next().unwrap_or("");
        match key_value(part) {
            (k, s, v) if k == key && s.is_none_or(|s| s == sep) => Ok(v),
            _ if self.text.split(',').any(|p| key_value(trim(p)).0 == key) => {
                Err(err(self.line, format!("expected '{key}{sep}' at '{part}'")))
            }
            _ => Err(err(self.line, format!("missing '{key}'"))),
        }
    }

    /// Every argument was taken and nothing follows the `)`.
    fn finish(mut self) -> Result<(), ParseError> {
        if let Some(part) = self.next() {
            return Err(err(self.line, format!("unexpected argument '{part}'")));
        }
        if !self.tail.is_empty() {
            let tail = self.tail;
            return Err(err(
                self.line,
                format!("unexpected text after ')': '{tail}'"),
            ));
        }
        Ok(())
    }
}

fn parse_pattern(line: usize, s: &str) -> Result<AccessPattern, ParseError> {
    let (kind, mut a) = Args::of(line, s)?;
    let pattern = match kind {
        "affine" => AccessPattern::Affine {
            base: parse_u64(line, a.take("base", '=')?)?,
            stride: parse_i64(line, a.take("stride", '=')?)?,
        },
        "symbolic" => AccessPattern::SymbolicStride {
            base: parse_u64(line, a.take("base", '=')?)?,
            typical_stride: parse_i64(line, a.take("stride", '~')?)?,
        },
        "gather" => AccessPattern::Gather {
            index: parse_memref_id(line, a.take("index", '=')?)?,
            base: parse_u64(line, a.take("base", '=')?)?,
            elem_bytes: parse_u32(line, a.take("elem", '=')?)?,
            region_bytes: parse_u64(line, a.take("region", '=')?)?,
        },
        "deref" => AccessPattern::Deref {
            pointer: parse_memref_id(line, a.take("ptr", '=')?)?,
            offset: parse_u64(line, a.take("off", '=')?)?,
            region_bytes: parse_u64(line, a.take("region", '=')?)?,
        },
        "chase" => AccessPattern::PointerChase {
            base: parse_u64(line, a.take("base", '=')?)?,
            node_bytes: parse_u64(line, a.take("node", '=')?)?,
            region_bytes: parse_u64(line, a.take("region", '=')?)?,
            locality: a
                .take("locality", '=')?
                .parse()
                .map_err(|e| err(line, format!("bad locality: {e}")))?,
        },
        "invariant" => AccessPattern::Invariant {
            addr: parse_u64(line, a.take("addr", '=')?)?,
        },
        other => return Err(err(line, format!("unknown access pattern '{other}'"))),
    };
    a.finish()?;
    Ok(pattern)
}

/// `pf(d=N,LEVEL)` or `pf(d=N,LEVEL,reduced)`.
fn parse_prefetch(line: usize, s: &str) -> Result<PrefetchPlan, ParseError> {
    let (_, mut a) = Args::of(line, s)?;
    let distance = parse_u32(line, a.take("d", '=')?)?;
    let level = |p: &str| match p {
        "L1" => Some(CacheLevel::L1),
        "L2" => Some(CacheLevel::L2),
        "L3" => Some(CacheLevel::L3),
        "MEM" => Some(CacheLevel::Memory),
        _ => None,
    };
    let field = |p: &str| match key_value(p) {
        (k, _, _) if k == "d" || k == "reduced" || level(k).is_some() => {
            err(line, format!("unexpected argument '{p}'"))
        }
        (k, _, v) => err(line, format!("unknown pf field '{k}={v}'")),
    };
    let target = match a.next().filter(|p| !p.is_empty()) {
        Some(p) => level(p).ok_or_else(|| field(p))?,
        None => return Err(err(line, "pf missing target level")),
    };
    let distance_reduced = match a.next() {
        Some("reduced") => true,
        Some(p) => return Err(field(p)),
        None => false,
    };
    a.finish()?;
    Ok(PrefetchPlan {
        distance,
        target,
        distance_reduced,
    })
}

/// Splits on whitespace but keeps `(...)` groups intact.
fn top_level_tokens(s: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0usize;
    s.split(move |c: char| {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
        depth == 0 && c.is_whitespace()
    })
    .filter(|t| !t.is_empty())
}

/// `"name" [class pattern widthB[ hint=L][ pf(...)]]`
fn parse_memref_line(line: usize, rest: &str) -> Result<MemoryRef, ParseError> {
    let (junk, quoted) =
        split_byte(trim(rest), b'"').ok_or_else(|| err(line, "expected quoted reference name"))?;
    let (name, body) =
        split_byte(quoted, b'"').ok_or_else(|| err(line, "unterminated reference name"))?;
    let body = trim(body)
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or_else(|| err(line, "expected [ ... ] reference body"))?;

    let mut tokens = top_level_tokens(body);
    let (Some(data), Some(pattern), Some(width_tok)) =
        (tokens.next(), tokens.next(), tokens.next())
    else {
        return Err(err(line, "reference body needs data class, pattern, width"));
    };
    let data = match data {
        "int" => DataClass::Int,
        "fp" => DataClass::Fp,
        other => return Err(err(line, format!("unknown data class '{other}'"))),
    };
    let pattern = parse_pattern(line, pattern)?;
    let width: u32 = width_tok
        .strip_suffix('B')
        .ok_or_else(|| err(line, format!("expected width like '4B', got '{width_tok}'")))?
        .parse()
        .map_err(|e| err(line, format!("bad width '{width_tok}': {e}")))?;

    let mut mr = MemoryRef::new(name, data, pattern, width);
    // The hint prints before the prefetch plan, each at most once.
    let mut tok = tokens.next();
    if let Some(h) = tok.and_then(|t| t.strip_prefix("hint=")) {
        mr.set_hint(Some(match h {
            "L2" => LatencyHint::L2,
            "L3" => LatencyHint::L3,
            other => return Err(err(line, format!("unknown hint '{other}'"))),
        }));
        tok = tokens.next();
    }
    if let Some(t) = tok.filter(|t| t.starts_with("pf(")) {
        mr.set_prefetch(Some(parse_prefetch(line, t)?));
        tok = tokens.next();
    }
    match tok {
        Some(t) if t.starts_with("hint=") || t.starts_with("pf(") => {
            Err(err(line, format!("repeated or misplaced attribute '{t}'")))
        }
        Some(t) => Err(err(line, format!("unknown reference attribute '{t}'"))),
        None if !junk.is_empty() => Err(err(line, "expected quoted reference name")),
        None => Ok(mr),
    }
}

fn opcode_from_mnemonic(line: usize, m: &str) -> Result<Opcode, ParseError> {
    Ok(match m {
        "ld" => Opcode::Load(DataClass::Int),
        "ldf" => Opcode::Load(DataClass::Fp),
        "st" => Opcode::Store(DataClass::Int),
        "stf" => Opcode::Store(DataClass::Fp),
        "lfetch" => Opcode::Prefetch(CacheLevel::L1),
        "add" => Opcode::Add,
        "sub" => Opcode::Sub,
        "and" => Opcode::And,
        "or" => Opcode::Or,
        "xor" => Opcode::Xor,
        "shl" => Opcode::Shl,
        "shr" => Opcode::Shr,
        "cmp" => Opcode::Cmp,
        "tbit" => Opcode::Tbit,
        "xma" => Opcode::Mul,
        "ext" => Opcode::Ext,
        "mov" => Opcode::Mov,
        "sel" => Opcode::Sel,
        "movl" => Opcode::MovImm,
        "fadd" => Opcode::Fadd,
        "fsub" => Opcode::Fsub,
        "fmul" => Opcode::Fmul,
        "fma" => Opcode::Fma,
        "fcmp" => Opcode::Fcmp,
        "fcvt" => Opcode::Fcvt,
        "nop" => Opcode::Nop,
        other => return Err(err(line, format!("unknown mnemonic '{other}'"))),
    })
}

/// The text before and after the first whitespace character, by bytes
/// while the text is ASCII.
fn split_word(s: &str) -> (&str, &str) {
    match s
        .bytes()
        .position(|c| matches!(c, b' ' | b'\t'..=b'\r') || !c.is_ascii())
    {
        Some(at) if s.as_bytes()[at].is_ascii() => (&s[..at], &s[at + 1..]),
        _ => s.split_once(char::is_whitespace).unwrap_or((s, "")),
    }
}

/// `[(qp)] <mnemonic> [dst =] [src, src...] [@mK]`. The references are
/// already read: `lfetch` prints without its target level, which is the
/// one its reference's prefetch plan names.
fn parse_inst_line(
    line: usize,
    id: InstId,
    rest: &str,
    memrefs: &[MemoryRef],
) -> Result<Inst, ParseError> {
    let mut rest = trim(rest);
    let mut qp: Option<(SrcOperand, bool)> = None;
    if let Some(after) = rest.strip_prefix('(') {
        let (inner, after) = split_byte(after, b')')
            .ok_or_else(|| err(line, "unterminated qualifying predicate"))?;
        let (neg, body) = match inner.strip_prefix('!') {
            Some(b) => (true, b),
            None => (false, inner),
        };
        qp = Some((parse_operand(line, body)?, neg));
        rest = trim(after);
    }
    let (rest, mem) = match rest.bytes().rposition(|c| c == b'@') {
        Some(at) => (
            trim(&rest[..at]),
            Some(parse_memref_id(line, &rest[at + 1..])?),
        ),
        None => (rest, None),
    };
    let (mnemonic, operands) = split_word(rest);
    let mut op = opcode_from_mnemonic(line, mnemonic)?;
    let (dst, operands) = match split_byte(operands, b'=') {
        Some((d, s)) => (Some(parse_vreg(line, d)?), trim(s)),
        None => (None, trim(operands)),
    };
    let mut srcs = Operands::default();
    let mut pending = Some(operands).filter(|s| !s.is_empty());
    while let Some(s) = pending {
        let (src, more) = split_byte(s, b',').map_or((s, None), |(a, b)| (a, Some(b)));
        srcs.push(parse_operand(line, src)?);
        pending = more;
    }
    match mem {
        None if op.is_memory() => {
            return Err(err(line, "memory instruction needs an @mK reference"))
        }
        Some(m) if op.is_prefetch() => {
            if let Some(plan) = memrefs.get(m.index()).and_then(MemoryRef::prefetch) {
                op = Opcode::Prefetch(plan.target);
            }
        }
        _ => {}
    }
    Ok(Inst {
        id,
        op,
        dst,
        srcs,
        mem,
        qp,
    })
}

/// `iA -> iB kind omega=N`
fn parse_dep_line(line: usize, rest: &str) -> Result<MemDep, ParseError> {
    let mut t = rest.split_whitespace();
    let (Some(from), Some("->"), Some(to), Some(kind), Some(omega), None) =
        (t.next(), t.next(), t.next(), t.next(), t.next(), t.next())
    else {
        return Err(err(line, "expected 'dep iA -> iB kind omega=N'"));
    };
    let kind = match kind {
        "mem-flow" => MemDepKind::Flow,
        "mem-anti" => MemDepKind::Anti,
        "mem-output" => MemDepKind::Output,
        other => return Err(err(line, format!("unknown dep kind '{other}'"))),
    };
    let omega = omega
        .strip_prefix("omega=")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| err(line, "bad omega"))?;
    let inst_id = |s: &str| {
        s.strip_prefix('i')
            .and_then(|n| n.parse().ok())
            .map(InstId)
            .ok_or_else(|| err(line, format!("bad instruction id '{s}'")))
    };
    Ok(MemDep {
        from: inst_id(from)?,
        to: inst_id(to)?,
        kind,
        omega,
    })
}

/// Parses a loop from the textual format written by [`LoopIr`]'s
/// `Display` implementation.
///
/// # Errors
///
/// [`ParseError::Syntax`] for malformed text (with the line number) and
/// [`ParseError::Invalid`] when the parsed loop fails [`LoopIr`]
/// validation.
///
/// # Example
///
/// ```
/// use ltsp_ir::{parse_loop, DataClass, LoopBuilder};
///
/// let mut b = LoopBuilder::new("roundtrip");
/// let a = b.affine_ref("a[i]", DataClass::Fp, 0x1000, 8, 8);
/// let v = b.load(a);
/// let _ = b.fadd_reduce(v);
/// let lp = b.build()?;
/// let reparsed = parse_loop(&lp.to_string()).unwrap();
/// assert_eq!(lp, reparsed);
/// # Ok::<(), ltsp_ir::IrError>(())
/// ```
pub fn parse_loop(text: &str) -> Result<LoopIr, ParseError> {
    let mut name = None;
    let mut live_in = Vec::new();
    let mut memrefs: Vec<MemoryRef> = Vec::new();
    let mut insts: Vec<Inst> = Vec::new();
    let mut mem_deps: Vec<MemDep> = Vec::new();
    let missing_header = || err(1, "missing 'loop NAME {' header");

    let mut rest = Some(text);
    let mut lines = std::iter::from_fn(|| {
        let s = rest?;
        let (line, more) = split_byte(s, b'\n').map_or((s, None), |(l, m)| (l, Some(m)));
        rest = more;
        Some(trim(line))
    })
    .enumerate()
    .map(|(idx, line)| (idx + 1, line))
    .filter(|(_, line)| !line.is_empty() && !line.starts_with("//"));
    // Lines come in Display's order: the header, then live_in (once), mK,
    // iK and dep lines.
    let mut next_rank = 0;
    let mut closed = false;
    for (lineno, line) in &mut lines {
        let numbered = split_byte(line, b':').filter(|(head, _)| head.starts_with(['i', 'm']));
        let rank = if let Some((head, rest)) = numbered {
            let head = trim(head);
            let inst = head.starts_with('i');
            let (what, count) = match inst {
                true => ("instruction", insts.len()),
                false => ("memref", memrefs.len()),
            };
            let id: u32 = head[1..]
                .parse()
                .map_err(|e| err(lineno, format!("bad {what} id '{head}': {e}")))?;
            if id as usize != count {
                let kind = if inst {
                    "instructions"
                } else {
                    "memory references"
                };
                return Err(err(lineno, format!("{kind} must appear in order")));
            }
            if inst {
                insts.push(parse_inst_line(lineno, InstId(id), rest, &memrefs)?);
                3
            } else {
                memrefs.push(parse_memref_line(lineno, rest)?);
                2
            }
        } else if let Some(rest) = line.strip_prefix("loop ") {
            let n = rest
                .strip_suffix('{')
                .map(trim)
                .ok_or_else(|| err(lineno, "expected '{' after loop name"))?;
            if n.is_empty() {
                return Err(err(lineno, "empty loop name"));
            }
            if name.replace(n).is_some() {
                return Err(err(lineno, "a second 'loop' header"));
            }
            0
        } else if line == "}" {
            closed = true;
            break;
        } else if let Some(rest) = line.strip_prefix("live_in ") {
            for part in rest.split(',') {
                live_in.push(parse_vreg(lineno, part)?);
            }
            1
        } else if let Some(rest) = line.strip_prefix("dep ") {
            mem_deps.push(parse_dep_line(lineno, rest)?);
            4
        } else {
            return Err(err(lineno, format!("unrecognized line '{line}'")));
        };
        if name.is_none() {
            return Err(missing_header());
        }
        if rank < next_rank {
            return Err(err(
                lineno,
                "out of order: a loop lists live_in once, then mK, iK and dep lines",
            ));
        }
        next_rank = if rank <= 1 { rank + 1 } else { rank };
    }
    let name = name.ok_or_else(missing_header)?;
    if let Some((lineno, _)) = lines.next() {
        return Err(err(lineno, "text after the closing '}'"));
    }
    if !closed {
        return Err(err(text.lines().count(), "missing closing '}'"));
    }
    Ok(LoopIr::new(name, insts, memrefs, mem_deps, live_in)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;

    #[test]
    fn parses_hand_written_loop() {
        let text = r#"
loop example {
  live_in g0
  m0: "a[i]" [int affine(base=0x1000, stride=4) 4B]
  m1: "y[i]" [int affine(base=0x200000, stride=4) 4B]
  i0: ld g1 = @m0
  i1: add g2 = g1, g0
  i2: st g2 @m1
}
"#;
        let lp = parse_loop(text).unwrap();
        assert_eq!(lp.name(), "example");
        assert_eq!(lp.insts().len(), 3);
        assert_eq!(lp.memrefs().len(), 2);
        assert_eq!(lp.live_in().len(), 1);
    }

    #[test]
    fn round_trips_every_pattern() {
        let mut b = LoopBuilder::new("all-patterns");
        let a = b.affine_ref("a[i]", DataClass::Fp, 0x1000, 8, 8);
        let sym = b.symbolic_ref("s[i*n]", DataClass::Fp, 0x2000, 4096, 8);
        let idx = b.affine_ref("b[i]", DataClass::Int, 0x3000, 4, 4);
        let g = b.gather_ref("a[b[i]]", DataClass::Int, idx, 0x10_0000, 4, 1 << 20);
        let node = b.chase_ref("node", 0x20_0000, 64, 1 << 22, 0.125);
        let fld = b.deref_ref("node->f", DataClass::Int, node, 128, 1 << 22, 8);
        let inv = b.invariant_ref("scale", DataClass::Fp, 0x8000, 8);
        let va = b.load(a);
        let vs = b.load(sym);
        let vi = b.load(idx);
        let vg = b.load(g);
        let vn = b.load(node);
        let vf = b.load(fld);
        let vv = b.load(inv);
        let t = b.fadd(va, vs);
        let u = b.fma_reduce(t, vv);
        let w = b.add(vi, vg);
        let x = b.add(w, vf);
        let _ = (u, vn, x);
        let out = b.affine_ref("y[i]", DataClass::Int, 0x9000_0000, 4, 4);
        b.store(out, x);
        let lp = b.build().unwrap();

        let text = lp.to_string();
        let reparsed = parse_loop(&text).unwrap();
        assert_eq!(lp, reparsed, "round trip failed for:\n{text}");
    }

    #[test]
    fn round_trips_annotations() {
        use crate::memref::{CacheLevel, PrefetchPlan};
        let mut b = LoopBuilder::new("annot");
        let a = b.affine_ref("a[i]", DataClass::Int, 0, 4, 4);
        let v = b.load(a);
        let _ = b.add(v, v);
        let mut lp = b.build().unwrap();
        lp.memref_mut(a).set_hint(Some(LatencyHint::L3));
        lp.memref_mut(a).set_prefetch(Some(PrefetchPlan {
            distance: 12,
            target: CacheLevel::L2,
            distance_reduced: true,
        }));
        let reparsed = parse_loop(&lp.to_string()).unwrap();
        assert_eq!(lp, reparsed);
    }

    #[test]
    fn round_trips_mem_deps_and_carried_operands() {
        use crate::loop_ir::MemDepKind;
        let mut b = LoopBuilder::new("deps");
        let a = b.affine_ref("a[i]", DataClass::Int, 0, 4, 4);
        let v = b.load(a);
        let acc = b.add_reduce(v);
        let out = b.affine_ref("a2[i]", DataClass::Int, 1 << 20, 4, 4);
        let st = b.store(out, acc);
        b.mem_dep(st, InstId(0), MemDepKind::Flow, 1);
        let lp = b.build().unwrap();
        let reparsed = parse_loop(&lp.to_string()).unwrap();
        assert_eq!(lp, reparsed);
    }

    #[test]
    fn predicated_prefetch_keeps_its_predicate_and_level() {
        let text = "loop q {\n  live_in g0\n  m0: \"a\" [int affine(base=0x0, stride=4) 4B pf(d=8,L2)]\n  i0: cmp p0 = g0, g0\n  i1: (p0) lfetch @m0\n}";
        let lp = parse_loop(text).unwrap();
        let pf = lp.inst(InstId(1));
        assert_eq!(pf.op(), Opcode::Prefetch(CacheLevel::L2));
        assert!(pf.qp().is_some(), "the predicate survives");
        assert_eq!(lp.to_string(), text);
    }

    #[test]
    fn reports_line_numbers() {
        let text = "loop x {\n  m0: garbage\n}";
        let e = parse_loop(text).unwrap_err();
        match e {
            ParseError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn rejects_invalid_loops() {
        let text = "loop bad {\n  i0: add g0 = g9\n}";
        let e = parse_loop(text).unwrap_err();
        assert!(matches!(e, ParseError::Invalid(_)), "{e}");
    }

    #[test]
    fn rejects_out_of_order_ids() {
        let text = r#"
loop x {
  m0: "a" [int affine(base=0x0, stride=4) 4B]
  i1: ld g0 = @m0
}
"#;
        let e = parse_loop(text).unwrap_err();
        assert!(matches!(e, ParseError::Syntax { .. }));
    }
}
