//! Parser for the textual loop format produced by [`LoopIr`]'s `Display`.
//!
//! The format is lossless: `parse_loop(&lp.to_string()) == lp` for every
//! valid loop (a property the test suite checks over random loops). The
//! parser accepts exactly what `Display` prints, modulo whitespace, `//`
//! comment lines and the spelling of numbers: the header first, then at
//! most one `live_in` line, the references, the instructions and the
//! dependences, each argument in its printed place, and nothing after the
//! closing `}`. No text is skipped or silently overridden.
//!
//! One byte cursor reads each byte of a well-formed line once, in
//! `Display`'s token order, and a number digit by digit, accepting what
//! `str::parse` accepts; an instruction line allocates nothing. Where the
//! cursor stops, the field it stopped in is the error: the message quotes
//! that field up to the delimiter that ends it, in `str::parse`'s words
//! for a bad number.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

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

/// Each access pattern's arguments in printed order, each key with its
/// separator. How a value is spelled follows from its key (`Cursor::arg`).
const PATTERNS: [(&str, &[&str]); 6] = [
    ("affine", &["base=", "stride="]),
    ("symbolic", &["base=", "stride~"]),
    ("gather", &["index=", "base=", "elem=", "region="]),
    ("deref", &["ptr=", "off=", "region="]),
    ("chase", &["base=", "node=", "region=", "locality="]),
    ("invariant", &["addr="]),
];

const LEVELS: [(&str, CacheLevel); 4] = [
    ("L1", CacheLevel::L1),
    ("L2", CacheLevel::L2),
    ("L3", CacheLevel::L3),
    ("MEM", CacheLevel::Memory),
];

const NEEDS: &str = "reference body needs data class, pattern, width";
const BODY: &str = "expected [ ... ] reference body";

fn opcode(m: &str) -> Option<Opcode> {
    Some(match m {
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
        _ => return None,
    })
}

/// `what 's'`, then `str::parse`'s error for `digits` as a `T`.
fn bad<T: FromStr<Err: fmt::Display>>(what: &str, s: &str, digits: &str) -> String {
    match digits.parse::<T>() {
        Err(e) => format!("{what} '{s}': {e}"),
        Ok(_) => format!("{what} '{s}'"),
    }
}

/// A register field, `gK`, `fK` or `pK`, that did not read as one.
fn bad_reg(s: &str) -> String {
    match s.strip_prefix(['g', 'f', 'p']) {
        Some(index) => bad::<u32>("bad register index", s, index),
        None => format!("bad register '{s}'"),
    }
}

/// A source operand field, `gK` or `gK[-omega]`, that did not read as one.
fn bad_operand(s: &str) -> String {
    let Some(open) = s.find("[-") else {
        return bad_reg(s);
    };
    let Some(close) = s.rfind(']').filter(|&c| c >= open + 2) else {
        return format!("unclosed carried operand '{s}'");
    };
    let reg = s[..open].trim();
    match s[open + 2..close].parse::<u32>() {
        _ if !reg.starts_with(['g', 'f', 'p']) || reg[1..].parse::<u32>().is_err() => bad_reg(reg),
        Err(e) => format!("bad omega in '{s}': {e}"),
        Ok(_) => format!("unexpected text after ']' in '{s}'"),
    }
}

fn bad_ref(s: &str) -> String {
    match s.strip_prefix('m') {
        Some(index) => bad::<u32>("bad memref id", s, index),
        None => format!("bad memref id '{s}'"),
    }
}

/// The value of argument `key`, spelled as `Cursor::arg` reads it.
fn bad_arg(key: &str, s: &str) -> String {
    let n = match (key, s.strip_prefix("0x")) {
        ("index" | "ptr", _) => return bad_ref(s),
        ("stride", _) => return bad::<i64>("bad integer", s, s),
        ("locality", _) => {
            let e = s.parse::<f64>().err();
            return e.map_or("bad locality".into(), |e| format!("bad locality: {e}"));
        }
        (_, Some(hex)) => u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex '{s}': {e}")),
        (_, None) => s.parse().map_err(|e| format!("bad number '{s}': {e}")),
    };
    let n = n.and_then(|n| u32::try_from(n).map_err(|e| format!("bad number '{s}': {e}")));
    n.err().unwrap_or_else(|| format!("bad number '{s}'"))
}

/// An argument split at its first `=`, else its first `~`, each side
/// trimmed; a bare word has no value.
fn key_value(p: &str) -> (&str, Option<&str>) {
    match p.find('=').or_else(|| p.find('~')) {
        Some(at) => (p[..at].trim(), Some(p[at + 1..].trim())),
        None => (p, None),
    }
}

/// A byte cursor over the loop text, on line `line`. Every read stops at
/// the line's `\n`, which [`Cursor::at`] also shows past the text's end;
/// `pos` stays on a char boundary. The readers an instruction line goes
/// through are forced inline: as calls, the 12 `compile_phases` scale
/// kernels parsed ~20 % slower.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    #[inline(always)]
    fn at(&self, i: usize) -> u8 {
        self.text.as_bytes().get(i).copied().unwrap_or(b'\n')
    }

    #[inline(always)]
    fn peek(&self) -> u8 {
        self.at(self.pos)
    }

    #[inline(always)]
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == c;
        self.pos += usize::from(hit);
        hit
    }

    #[inline(always)]
    fn eat_str(&mut self, s: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(s.as_bytes());
        self.pos += if hit { s.len() } else { 0 };
        hit
    }

    /// The byte length of the whitespace char at the cursor, 0 for none:
    /// `str::trim`'s whitespace, by bytes while it is ASCII, never the `\n`.
    #[inline(always)]
    fn space(&self) -> usize {
        match self.peek() {
            b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r' => 1,
            c if c.is_ascii() => 0,
            _ => self.wide_space(),
        }
    }

    #[cold]
    fn wide_space(&self) -> usize {
        let c = self.text[self.pos..].chars().next();
        c.filter(|c| c.is_whitespace()).map_or(0, char::len_utf8)
    }

    /// Skips whitespace, then shows the byte at the cursor.
    #[inline(always)]
    fn ws(&mut self) -> u8 {
        while let n @ 1.. = self.space() {
            self.pos += n;
        }
        self.peek()
    }

    /// Skips whitespace; `false` if there was none.
    fn gap(&mut self) -> bool {
        let hit = self.space() > 0;
        self.ws();
        hit
    }

    /// The end of a reference token: whitespace, the body's `]` or the
    /// line's end.
    fn token_end(&mut self) -> bool {
        self.gap() || matches!(self.peek(), b']' | b'\n')
    }

    /// Moves to the first byte of the next line that holds more than
    /// whitespace and is not a `//` comment; `false` at the end of the
    /// text. Blank and comment lines still count.
    #[inline(always)]
    fn next_line(&mut self) -> bool {
        loop {
            match (self.ws(), self.pos < self.text.len()) {
                (_, false) => return false,
                (b'\n', _) => (self.pos, self.line) = (self.pos + 1, self.line + 1),
                (b'/', _) if self.at(self.pos + 1) == b'/' => {
                    self.pos = self.field(self.pos, b"").1
                }
                _ => return true,
            }
        }
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(err(self.line, message))
    }

    /// `v`, else the error `message()` on this line.
    #[inline(always)]
    fn need<T>(&self, v: Option<T>, message: impl FnOnce() -> String) -> Result<T, ParseError> {
        v.ok_or_else(|| err(self.line, message()))
    }

    /// The text from `from` to the first of `stops` or the line's end,
    /// trimmed, and where it ends: the field a diagnostic quotes.
    fn field(&self, from: usize, stops: &[u8]) -> (&'a str, usize) {
        let rest = &self.text.as_bytes()[from..];
        let len = rest.iter().position(|c| *c == b'\n' || stops.contains(c));
        let end = from + len.unwrap_or(rest.len());
        (self.text[from..end].trim(), end)
    }

    /// The word from `from`: up to whitespace, one of `stops` or the
    /// line's end.
    fn word(&self, from: usize, stops: &[u8]) -> &'a str {
        let rest = &self.text[from..];
        let stop = |c: char| c.is_whitespace() || c.is_ascii() && stops.contains(&(c as u8));
        &rest[..rest.find(stop).unwrap_or(rest.len())]
    }

    /// A number as `str::parse` reads one: an optional `+`, then at least
    /// one digit, the value at most `max`.
    #[inline(always)]
    fn digits(&mut self, radix: u32, max: u64) -> Option<u64> {
        self.eat(b'+');
        let start = self.pos;
        let mut v = 0u64;
        loop {
            let d = match self.peek() {
                c @ b'0'..=b'9' => c - b'0',
                c @ (b'a'..=b'f' | b'A'..=b'F') if radix == 16 => (c | 0x20) - b'a' + 10,
                _ => break,
            };
            v = v.checked_mul(radix.into())?.checked_add(d.into())?;
            self.pos += 1;
        }
        (self.pos > start && v <= max).then_some(v)
    }

    #[inline(always)]
    fn u32(&mut self) -> Option<u32> {
        self.digits(10, u32::MAX.into()).map(|v| v as u32)
    }

    /// The value of argument `key`, as `u64` bits: a reference id for
    /// `index` and `ptr`, an `f64` for `locality`, an `i64` for `stride`,
    /// else a `u64` (a `u32` for `elem` and `d`) in decimal or `0x` hex.
    fn arg(&mut self, key: &str) -> Option<u64> {
        match key {
            "index" | "ptr" => self.eat(b'm').then(|| self.u32()).flatten().map(u64::from),
            "locality" => {
                let (v, end) = self.field(self.pos, b",)");
                self.pos = end;
                v.parse::<f64>().ok().map(f64::to_bits)
            }
            _ => {
                let neg = key == "stride" && self.eat(b'-');
                let hex = key != "stride" && self.eat_str("0x");
                let max = match key {
                    "stride" => i64::MAX as u64 + u64::from(neg),
                    "elem" | "d" => u32::MAX.into(),
                    _ => u64::MAX,
                };
                if neg && self.peek() == b'+' {
                    return None;
                }
                let m = self.digits(if hex { 16 } else { 10 }, max)?;
                Some(if neg { m.wrapping_neg() } else { m })
            }
        }
    }

    #[inline(always)]
    fn vreg(&mut self) -> Option<VReg> {
        let class = match self.peek() {
            b'g' => RegClass::Gr,
            b'f' => RegClass::Fr,
            b'p' => RegClass::Pr,
            _ => return None,
        };
        self.pos += 1;
        Some(VReg::new(class, self.u32()?))
    }

    /// A source operand read from `reg` on: `[-omega]` or nothing, then
    /// whitespace.
    #[inline(always)]
    fn carried(&mut self, reg: VReg) -> Option<SrcOperand> {
        if self.ws() != b'[' || !self.eat_str("[-") {
            return Some(SrcOperand::now(reg));
        }
        let omega = self.u32()?;
        self.eat(b']').then(|| {
            self.ws();
            SrcOperand::carried(reg, omega)
        })
    }

    /// `gK` or `gK[-omega]`, then whitespace.
    #[inline(always)]
    fn operand(&mut self) -> Option<SrcOperand> {
        let reg = self.vreg()?;
        self.carried(reg)
    }

    /// `r, r...` to the end of the line, after `live_in `.
    fn regs(&mut self, into: &mut Vec<VReg>) -> Result<(), ParseError> {
        loop {
            self.ws();
            let at = self.pos;
            let r = self.vreg().filter(|_| matches!(self.ws(), b',' | b'\n'));
            into.push(self.need(r, || bad_reg(self.field(at, b",").0))?);
            if !self.eat(b',') {
                return Ok(());
            }
        }
    }

    /// `[(qp)] <mnemonic> [dst =] [src, src...] [@mK]`, after `iK:`. The
    /// references are already read: `lfetch` prints without its target
    /// level, which is the one its reference's prefetch plan names.
    #[inline(always)]
    fn inst(&mut self, id: InstId, memrefs: &[MemoryRef]) -> Result<Inst, ParseError> {
        self.ws();
        let mut qp = None;
        if self.eat(b'(') {
            let (neg, at) = (self.eat(b'!'), self.pos);
            self.ws();
            qp = self.operand().filter(|_| self.eat(b')')).map(|s| (s, neg));
            self.need(qp, || match self.field(at, b")") {
                (s, end) if self.at(end) == b')' => bad_operand(s),
                _ => "unterminated qualifying predicate".into(),
            })?;
            self.ws();
        }
        let start = self.pos;
        while self.peek().is_ascii_lowercase() {
            self.pos += 1;
        }
        let more = |c: &Self| !matches!(c.peek(), b'@' | b'\n');
        let op = opcode(&self.text[start..self.pos]).filter(|_| self.gap() || !more(self));
        let mut op = self.need(op, || {
            format!("unknown mnemonic '{}'", self.word(start, b"@"))
        })?;
        let (ops, mut from, mut dst, mut srcs) = (self.pos, self.pos, None, Operands::default());
        if more(self) {
            let mut push = |s: Option<SrcOperand>| s.map(|s| srcs.push(s)).is_some();
            let mut ok = match self.vreg() {
                Some(reg) if self.ws() == b'=' => {
                    self.pos += 1;
                    self.ws();
                    (dst, from) = (Some(reg), self.pos);
                    !more(self) || push(self.operand())
                }
                reg => push(reg.and_then(|reg| self.carried(reg))),
            };
            while ok && self.eat(b',') {
                self.ws();
                from = self.pos;
                ok = push(self.operand());
            }
            // A field before the first `=` is the destination.
            self.need((ok && !more(self)).then_some(()), || {
                match self.field(ops, b"=@") {
                    (d, end) if dst.is_none() && self.at(end) == b'=' => bad_reg(d),
                    _ => bad_operand(self.field(from, b",@").0),
                }
            })?;
        }
        let mut mem = None;
        if self.eat(b'@') {
            let at = self.pos;
            self.ws();
            mem = self.eat(b'm').then(|| self.u32()).flatten().map(MemRefId);
            mem = mem.filter(|_| self.ws() == b'\n');
            self.need(mem, || bad_ref(self.field(at, b"").0))?;
        }
        match mem {
            None if op.is_memory() => {
                return self.fail("memory instruction needs an @mK reference")
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

    /// `"name" [class pattern widthB[ hint=L][ pf(...)]]`, after `mK:`.
    fn memref(&mut self) -> Result<MemoryRef, ParseError> {
        let quoted = self.ws() == b'"';
        self.need(quoted.then_some(()), || {
            "expected quoted reference name".into()
        })?;
        let end = self.field(self.pos + 1, b"\"").1;
        let name = &self.text[self.pos + 1..end];
        let named = self.at(end) == b'"';
        self.need(named.then_some(()), || "unterminated reference name".into())?;
        self.pos = end + 1;
        let body = self.ws() == b'[';
        self.need(body.then_some(()), || BODY.into())?;
        self.pos += 1;
        self.ws();
        let w = self.word(self.pos, b"]");
        self.pos += w.len();
        let data = [("int", DataClass::Int), ("fp", DataClass::Fp)].into_iter();
        let data = data
            .filter(|d| d.0 == w)
            .map(|d| d.1)
            .next()
            .filter(|_| self.gap());
        let data = self.need(data, || match w {
            "" | "int" | "fp" => NEEDS.into(),
            _ => format!("unknown data class '{w}'"),
        })?;
        let pattern = self.pattern()?;
        let at = self.pos;
        let width = self.u32().filter(|_| self.eat(b'B') && self.token_end());
        let width = self.need(width, || {
            let w = self.word(at, b"]");
            match w.strip_suffix('B') {
                _ if w.is_empty() => NEEDS.into(),
                Some(digits) => bad::<u32>("bad width", w, digits),
                None => format!("expected width like '4B', got '{w}'"),
            }
        })?;
        let mut mr = MemoryRef::new(name, data, pattern, width);
        // The hint prints before the prefetch plan, each at most once.
        if self.eat_str("hint=") {
            let at = self.pos;
            let hints = [("L2", LatencyHint::L2), ("L3", LatencyHint::L3)];
            let hint = hints.into_iter().find(|h| self.eat_str(h.0));
            let hint = hint.filter(|_| self.token_end());
            let hint = self.need(hint, || format!("unknown hint '{}'", self.word(at, b"]")))?;
            mr.set_hint(Some(hint.1));
        }
        if self.eat_str("pf(") {
            mr.set_prefetch(Some(self.prefetch()?));
        }
        if self.eat(b']') {
            let end = self.ws() == b'\n';
            return self.need(end.then_some(mr), || BODY.into());
        }
        let t = self.word(self.pos, b"]");
        self.fail(match t {
            "" => BODY.into(),
            _ if t.starts_with("hint=") || t.starts_with("pf(") => {
                format!("repeated or misplaced attribute '{t}'")
            }
            _ => format!("unknown reference attribute '{t}'"),
        })
    }

    /// `kind(key=value, ...)`, the arguments as [`PATTERNS`] lists them.
    fn pattern(&mut self) -> Result<AccessPattern, ParseError> {
        let at = self.pos;
        let kind = self.word(at, b"(]");
        self.pos += kind.len();
        let open = self.eat(b'(').then_some(());
        self.need(open, || {
            format!("expected '(' in '{}'", self.word(at, b"]"))
        })?;
        let args = PATTERNS.iter().find(|p| p.0 == kind).map(|p| p.1);
        let args = self.need(args, || format!("unknown access pattern '{kind}'"))?;
        let mut v = [0; 4];
        for (i, arg) in args.iter().enumerate() {
            // At a `)`, the next key reads as missing.
            if i > 0 {
                self.eat(b',');
            }
            v[i] = self.keyed(at, arg)?;
        }
        self.call_end(at)?;
        Ok(match kind {
            "affine" => AccessPattern::Affine {
                base: v[0],
                stride: v[1] as i64,
            },
            "symbolic" => AccessPattern::SymbolicStride {
                base: v[0],
                typical_stride: v[1] as i64,
            },
            "gather" => AccessPattern::Gather {
                index: MemRefId(v[0] as u32),
                base: v[1],
                elem_bytes: v[2] as u32,
                region_bytes: v[3],
            },
            "deref" => AccessPattern::Deref {
                pointer: MemRefId(v[0] as u32),
                offset: v[1],
                region_bytes: v[2],
            },
            "chase" => AccessPattern::PointerChase {
                base: v[0],
                node_bytes: v[1],
                region_bytes: v[2],
                locality: f64::from_bits(v[3]),
            },
            _ => AccessPattern::Invariant { addr: v[0] },
        })
    }

    /// `key=value` (or `key~value`, as `arg` ends), whitespace around
    /// each part, up to the `,` or `)` after it, in the call that starts
    /// at `at`: the value as [`Cursor::arg`] reads it.
    fn keyed(&mut self, at: usize, arg: &str) -> Result<u64, ParseError> {
        let (key, sep) = arg.split_at(arg.len() - 1);
        let part = self.pos;
        self.ws();
        if !(self.eat_str(key) && self.ws() == sep.as_bytes()[0]) {
            // A bare key has an empty value; another is out of place if
            // `key` is among the call's arguments.
            let here = self.field(part, b",)").0;
            let open = at + self.text[at..].find('(').map_or(0, |o| o + 1);
            let args = self.field(open, b")").0;
            let message = match key_value(here) {
                (k, None) if k == key => bad_arg(key, ""),
                _ if args.split(',').any(|p| key_value(p.trim()).0 == key) => {
                    format!("expected '{key}{sep}' at '{here}'")
                }
                _ => format!("missing '{key}'"),
            };
            return self.fail(self.call_fault(at, message));
        }
        self.pos += 1;
        let value = self.pos;
        self.ws();
        let v = self.arg(key).filter(|_| matches!(self.ws(), b',' | b')'));
        self.need(v, || {
            self.call_fault(at, bad_arg(key, self.field(value, b",)").0))
        })
    }

    /// `message`, unless the call from `at` has no `)` before the end of
    /// the reference body, which is the first fault a call can have.
    fn call_fault(&self, at: usize, message: String) -> String {
        match self.field(at, b"]").0 {
            call if !call.contains(')') => format!("expected ')' in '{call}'"),
            _ => message,
        }
    }

    /// The `)` after a call's last argument, then the token's end.
    fn call_end(&mut self, at: usize) -> Result<(), ParseError> {
        let closed = self.eat(b')').then_some(());
        self.need(closed, || {
            let part = self.field(self.pos + 1, b",)").0;
            self.call_fault(at, format!("unexpected argument '{part}'"))
        })?;
        let end = self.token_end().then_some(());
        self.need(end, || {
            format!("unexpected text after ')': '{}'", self.word(self.pos, b"]"))
        })
    }

    /// `d=N,LEVEL` or `d=N,LEVEL,reduced`, then `)`, after `pf(`.
    fn prefetch(&mut self) -> Result<PrefetchPlan, ParseError> {
        let at = self.pos - 3;
        let distance = self.keyed(at, "d=")? as u32;
        let (mut target, mut distance_reduced) = (None, false);
        for slot in 0..2 {
            if !self.eat(b',') {
                break;
            }
            let part = self.pos;
            self.ws();
            let hit = match slot {
                0 => LEVELS
                    .iter()
                    .find(|l| self.eat_str(l.0))
                    .map(|l| target = Some(l.1)),
                _ => self.eat_str("reduced").then(|| distance_reduced = true),
            };
            let ends = matches!(self.ws(), b',' | b')');
            self.need(hit.filter(|_| ends), || {
                let p = self.field(part, b",)").0;
                let known = |k: &str| k == "d" || k == "reduced" || LEVELS.iter().any(|l| l.0 == k);
                self.call_fault(
                    at,
                    match key_value(p) {
                        _ if slot == 0 && p.is_empty() => "pf missing target level".into(),
                        (k, _) if known(k) => format!("unexpected argument '{p}'"),
                        (k, v) => format!("unknown pf field '{k}={}'", v.unwrap_or("")),
                    },
                )
            })?;
        }
        let target = self.need(target, || {
            self.call_fault(at, "pf missing target level".into())
        })?;
        self.call_end(at)?;
        Ok(PrefetchPlan {
            distance,
            target,
            distance_reduced,
        })
    }

    /// `iA -> iB kind omega=N`, after `dep `: five words, each read where
    /// it stands. A fault is named in the order the line binds: its
    /// shape, the kind, omega, then each id.
    fn dep(&mut self) -> Result<MemDep, ParseError> {
        let word = |c: &mut Self, read: &dyn Fn(&mut Self) -> Option<u32>| {
            let at = (c.ws(), c.pos).1;
            let v = read(c).filter(|_| c.space() > 0 || c.peek() == b'\n');
            c.pos = if v.is_some() {
                c.pos
            } else {
                at + c.word(at, b"").len()
            };
            (v, &c.text[at..c.pos])
        };
        let kinds = [
            ("mem-flow", MemDepKind::Flow),
            ("mem-anti", MemDepKind::Anti),
            ("mem-output", MemDepKind::Output),
        ];
        let id = |c: &mut Self| c.eat(b'i').then(|| c.u32()).flatten();
        let from = word(self, &id);
        let arrow = word(self, &|c| c.eat_str("->").then_some(0));
        let to = word(self, &id);
        let kind = word(self, &|c| (0..3).find(|&k| c.eat_str(kinds[k as usize].0)));
        let omega = word(self, &|c| c.eat_str("omega=").then(|| c.u32()).flatten());
        let words = [from.1, arrow.1, to.1, kind.1, omega.1];
        let shape = arrow.0.is_some() && !words.contains(&"") && self.ws() == b'\n';
        match (from.0, to.0, kind.0, omega.0) {
            (Some(f), Some(t), Some(k), Some(omega)) if shape => Ok(MemDep {
                from: InstId(f),
                to: InstId(t),
                kind: kinds[k as usize].1,
                omega,
            }),
            _ if !shape => self.fail("expected 'dep iA -> iB kind omega=N'"),
            (_, _, None, _) => self.fail(format!("unknown dep kind '{}'", kind.1)),
            (_, _, _, None) => self.fail("bad omega"),
            (None, ..) => self.fail(format!("bad instruction id '{}'", from.1)),
            _ => self.fail(format!("bad instruction id '{}'", to.1)),
        }
    }
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
    let mut c = Cursor {
        text,
        pos: 0,
        line: 1,
    };
    let (mut name, mut live_in, mut memrefs, mut mem_deps) = (None, vec![], vec![], vec![]);
    // An instruction line prints in ~20–40 bytes.
    let mut insts: Vec<Inst> = Vec::with_capacity(text.len() / 28);
    let missing_header = || err(1, "missing 'loop NAME {' header");
    // A `live_in` or `dep` line holds more than its keyword.
    let keyword = |c: &mut Cursor, k: &str| c.eat_str(k) && c.ws() != b'\n';
    // Lines come in Display's order: the header, then live_in (once), mK,
    // iK and dep lines.
    let (mut next_rank, mut closed) = (0, false);
    while c.next_line() {
        let (line, start) = (c.line, c.pos);
        let rank = match c.peek() {
            b'i' | b'm' => {
                let inst = c.peek() == b'i';
                let (what, kinds, count) = match inst {
                    true => ("instruction", "instructions", insts.len()),
                    false => ("memref", "memory references", memrefs.len()),
                };
                c.pos += 1;
                let id = c.u32().filter(|_| c.ws() == b':');
                let id = c.need(id, || match c.field(start, b":") {
                    (head, end) if c.at(end) == b':' => {
                        bad::<u32>(&format!("bad {what} id"), head, &head[1..])
                    }
                    (text, _) => format!("unrecognized line '{text}'"),
                })?;
                c.pos += 1;
                if id as usize != count {
                    return Err(err(line, format!("{kinds} must appear in order")));
                }
                if inst {
                    insts.push(c.inst(InstId(id), &memrefs)?);
                    3
                } else {
                    memrefs.push(c.memref()?);
                    2
                }
            }
            b'l' if keyword(&mut c, "live_in ") => {
                c.regs(&mut live_in)?;
                1
            }
            b'd' if keyword(&mut c, "dep ") => {
                mem_deps.push(c.dep()?);
                4
            }
            _ => {
                let (text, end) = c.field(start, b"");
                c.pos = end;
                if text == "}" {
                    closed = true;
                    break;
                }
                let n = text
                    .strip_prefix("loop ")
                    .ok_or_else(|| err(line, format!("unrecognized line '{text}'")))?
                    .strip_suffix('{')
                    .map(str::trim)
                    .ok_or_else(|| err(line, "expected '{' after loop name"))?;
                if n.is_empty() {
                    return Err(err(line, "empty loop name"));
                }
                if name.replace(n).is_some() {
                    return Err(err(line, "a second 'loop' header"));
                }
                0
            }
        };
        if name.is_none() {
            return Err(missing_header());
        }
        if rank < next_rank {
            return Err(err(
                line,
                "out of order: a loop lists live_in once, then mK, iK and dep lines",
            ));
        }
        next_rank = if rank <= 1 { rank + 1 } else { rank };
    }
    let name = name.ok_or_else(missing_header)?;
    if c.next_line() {
        return Err(err(c.line, "text after the closing '}'"));
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

    /// Where the cursor names a line's fault differently from the parser
    /// it replaced, as (what that parser said, what the cursor says), each
    /// message's quoted text and `str::parse`'s words left out. The old
    /// parser split a line into fields before it read any: it counted a
    /// reference body's tokens and looked for its `]` first, split a name
    /// at the line's first `"`, an instruction at its last `@`, a call at
    /// its last `)` and its arguments at commas, and took the text before
    /// an `=` as the destination. So on a line with two faults it could
    /// name the later one, or quote a field the cursor ends sooner. The
    /// cursor names the first fault it reads.
    const INTENDED: &[(&str, &[&str])] = &[
        (
            "bad hex '_'",
            &[
                "expected '_' in '_'",
                "expected quoted reference name",
                "missing '_'",
            ],
        ),
        (
            "bad integer '_'",
            &[
                "expected '_' in '_'",
                "expected quoted reference name",
                "unexpected text after '_'",
            ],
        ),
        (
            "bad locality",
            &[
                "expected quoted reference name",
                "unexpected text after '_'",
            ],
        ),
        (
            "bad memref id '_'",
            &[
                "bad omega in '_'",
                "bad register '_'",
                "bad register index '_'",
                "expected '_' in '_'",
                "expected quoted reference name",
                "unclosed carried operand '_'",
                "unknown mnemonic '_'",
            ],
        ),
        (
            "bad number '_'",
            &[
                "expected '_' in '_'",
                "expected quoted reference name",
                "unexpected text after '_'",
            ],
        ),
        (
            "bad omega in '_'",
            &["bad memref id '_'", "unclosed carried operand '_'"],
        ),
        ("bad register '_'", &["bad memref id '_'"]),
        ("bad register index '_'", &["bad memref id '_'"]),
        (
            "bad width '_'",
            &[
                "expected [ ... ] reference body",
                "expected quoted reference name",
                "reference body needs data class, pattern, width",
            ],
        ),
        ("expected '_' at '_'", &["expected quoted reference name"]),
        ("expected '_' in '_'", &["expected quoted reference name"]),
        (
            "expected [ ... ] reference body",
            &[
                "bad hex '_'",
                "bad integer '_'",
                "bad memref id '_'",
                "bad number '_'",
                "bad width '_'",
                "expected '_' at '_'",
                "expected '_' in '_'",
                "expected quoted reference name",
                "expected width like '_', got '_'",
                "missing '_'",
                "reference body needs data class, pattern, width",
                "unexpected text after '_'",
                "unknown access pattern '_'",
                "unknown data class '_'",
                "unknown reference attribute '_'",
            ],
        ),
        (
            "expected width like '_', got '_'",
            &[
                "bad width '_'",
                "expected [ ... ] reference body",
                "expected quoted reference name",
                "reference body needs data class, pattern, width",
            ],
        ),
        (
            "missing '_'",
            &[
                "bad integer '_'",
                "bad locality",
                "bad number '_'",
                "expected '_' in '_'",
                "expected quoted reference name",
            ],
        ),
        (
            "reference body needs data class, pattern, width",
            &[
                "bad hex '_'",
                "bad integer '_'",
                "bad locality",
                "bad memref id '_'",
                "bad number '_'",
                "expected '_' at '_'",
                "expected '_' in '_'",
                "expected quoted reference name",
                "missing '_'",
                "unexpected text after '_'",
                "unknown access pattern '_'",
                "unknown data class '_'",
            ],
        ),
        ("unexpected text after '_' in '_'", &["bad memref id '_'"]),
        (
            "unknown access pattern '_'",
            &["expected '_' in '_'", "expected quoted reference name"],
        ),
        (
            "unknown data class '_'",
            &[
                "expected quoted reference name",
                "reference body needs data class, pattern, width",
            ],
        ),
        ("unknown mnemonic '_'", &["bad memref id '_'"]),
        (
            "unknown reference attribute '_'",
            &["expected [ ... ] reference body"],
        ),
        (
            "unterminated reference name",
            &["expected quoted reference name"],
        ),
    ];

    /// `message` with its quoted text and `str::parse`'s words left out.
    fn kind(message: &str) -> String {
        let mut out = String::new();
        for (i, piece) in message.split('\'').enumerate() {
            match piece.find(": ") {
                _ if i % 2 == 1 => out.push_str("'_'"),
                Some(at) => return out + &piece[..at],
                None => out.push_str(piece),
            }
        }
        out
    }

    /// The referee's verdict on `text`: the same loop from both parsers,
    /// or errors with the same bytes, or syntax errors on the same line
    /// that quote the same field or whose kinds [`INTENDED`] lists
    /// (returned); else the disagreement.
    fn compare(text: &str) -> Result<Option<(String, String)>, String> {
        use super::referee::ParseError as Old;
        let ours = parse_loop(text);
        let theirs = super::referee::parse_loop(text);
        let mut pair = None;
        match (&ours, &theirs) {
            (Ok(a), Ok(b)) if a == b => return Ok(None),
            (Err(a), Err(b)) if a.to_string() == b.to_string() => return Ok(None),
            (
                Err(ParseError::Syntax { line, message }),
                Err(Old::Syntax {
                    line: l,
                    message: m,
                }),
            ) if line == l => {
                let p = (kind(m), kind(message));
                // The same field, which the cursor ends sooner (at a first
                // `)` or `@` where the old parser took the last) or begins
                // sooner (at a first `@`).
                let quoted = |m: &str| m.split('\'').nth(1).unwrap_or("").to_string();
                let (a, b) = (quoted(message), quoted(m));
                let sooner = p.0 == p.1 && (b.starts_with(&a) || a.ends_with(&b));
                let listed = INTENDED
                    .iter()
                    .any(|(o, c)| *o == p.0 && c.contains(&p.1.as_str()));
                if sooner || listed {
                    return Ok(Some(p));
                }
                pair = Some(p);
            }
            _ => {}
        }
        let ours = ours.map_or_else(|e| e.to_string(), |lp| format!("{lp:?}"));
        let theirs = theirs.map_or_else(|e| e.to_string(), |lp| format!("{lp:?}"));
        Err(format!(
            "{pair:?}\ncursor: {ours}\nreferee: {theirs}\ninput:\n{text}"
        ))
    }

    /// One token-level mutation of `text`: a token deleted, duplicated or
    /// swapped; a digit, separator or register class replaced; a `+`,
    /// `0`, tab, `//` line or non-ASCII space inserted; a number
    /// overflowed.
    fn mutate(text: &str, rng: &mut crate::SplitMix64) -> String {
        // Tokens: runs of word bytes, runs of spaces, or any one char.
        let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
        let mut spans = Vec::new();
        let mut chars = text.char_indices().peekable();
        while let Some((at, c)) = chars.next() {
            let mut end = at + c.len_utf8();
            while let Some(&(next, d)) = chars.peek() {
                let same = (word(c) && word(d)) || (c == ' ' && d == ' ');
                if !same {
                    break;
                }
                end = next + d.len_utf8();
                chars.next();
            }
            spans.push((at, end));
        }
        let mut pick = |n: usize| rng.next_below(n.max(1) as u64) as usize;
        let (at, end) = spans[pick(spans.len())];
        let tok = &text[at..end];
        let splice =
            |from: usize, to: usize, with: &str| format!("{}{with}{}", &text[..from], &text[to..]);
        let positions = |f: &dyn Fn(char) -> bool| -> Vec<usize> {
            text.char_indices()
                .filter(|&(_, c)| f(c))
                .map(|(i, _)| i)
                .collect()
        };
        let digits = positions(&|c| c.is_ascii_digit());
        let seps = ",=~:@()[]{}\"->! ";
        match pick(12) {
            0 => splice(at, end, ""),
            1 => splice(at, at, tok),
            2 => {
                let (b, e) = spans[(pick(spans.len()) + 1).min(spans.len() - 1)];
                if b >= end {
                    format!(
                        "{}{}{}{tok}{}",
                        &text[..at],
                        &text[b..e],
                        &text[end..b],
                        &text[e..]
                    )
                } else {
                    splice(at, end, "")
                }
            }
            3 if !digits.is_empty() => {
                let d = digits[pick(digits.len())];
                splice(d, d + 1, &pick(10).to_string())
            }
            4 => {
                let at = positions(&|c| seps.contains(c));
                let s = at[pick(at.len())];
                let with = seps.as_bytes()[pick(seps.len())] as char;
                splice(s, s + 1, &with.to_string())
            }
            5 => {
                let at = positions(&|c| matches!(c, 'g' | 'f' | 'p' | 'm' | 'i'));
                let s = at[pick(at.len())];
                splice(s, s + 1, ["g", "f", "p", "m", "i", "r"][pick(6)])
            }
            6 if !digits.is_empty() => {
                let d = digits[pick(digits.len())];
                splice(d, d, "+")
            }
            7 if !digits.is_empty() => {
                let d = digits[pick(digits.len())];
                splice(d, d, "0")
            }
            8 => splice(at, at, "\t"),
            9 => {
                let lines = positions(&|c| c == '\n');
                let l = lines[pick(lines.len())] + 1;
                splice(l, l, "  // note\n")
            }
            10 => splice(
                at,
                at,
                ["\u{a0}", "\u{2003}", "\u{3000}", "\u{85}"][pick(4)],
            ),
            _ if !digits.is_empty() => {
                let d = digits[pick(digits.len())];
                let big = [
                    "4294967296",
                    "18446744073709551616",
                    "99999999999999999999999",
                ];
                splice(d, d + 1, big[pick(3)])
            }
            _ => splice(at, end, ""),
        }
    }

    /// The cursor against the parser it replaced, which `mod referee`
    /// keeps verbatim: on the 17 corpus loops, random loops (every
    /// pattern and annotation), and fixed-seed mutants of them, one to
    /// three mutations each, both give the same loop or reject on the same
    /// line, in the same words but for [`INTENDED`]. `LTSP_PARSER_MUTANTS`
    /// sets how many mutants (default 50 000).
    #[test]
    fn the_cursor_parser_agrees_with_the_one_it_replaced() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../loops");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("the loop corpus")
            .map(|e| e.expect("entry").path())
            .collect();
        paths.sort();
        let mut texts: Vec<String> = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("readable"))
            .collect();
        assert_eq!(texts.len(), 17, "the whole corpus");
        texts.extend((0..16).map(|s| ltsp_workloads::random_loop(s).to_string()));
        for text in &texts {
            assert_eq!(compare(text), Ok(None), "{text}");
        }
        let mutants: usize = std::env::var("LTSP_PARSER_MUTANTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000);
        let mut rng = crate::SplitMix64::new(0x5eed_2026);
        let mut failures = std::collections::BTreeMap::new();
        let mut intended = std::collections::BTreeMap::new();
        for k in 0..mutants {
            let mut text = texts[k % texts.len()].clone();
            for _ in 0..=rng.next_below(3) {
                text = mutate(&text, &mut rng);
            }
            match compare(&text) {
                Ok(None) => {}
                Ok(Some(pair)) => *intended.entry(pair).or_insert(0) += 1,
                Err(e) => {
                    let head = e.lines().next().unwrap_or_default().to_string();
                    failures.entry(head).or_insert(e);
                }
            }
        }
        let shown: Vec<&String> = failures.values().collect();
        assert!(failures.is_empty(), "{} kinds:\n{shown:#?}", failures.len());
        eprintln!("{mutants} mutants; intended differences: {intended:#?}");
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

/// The parser this module's cursor replaced, kept verbatim as the
/// referee of `the_cursor_parser_agrees_with_the_one_it_replaced`.
#[cfg(test)]
mod referee {
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
        let (junk, quoted) = split_byte(trim(rest), b'"')
            .ok_or_else(|| err(line, "expected quoted reference name"))?;
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
}
