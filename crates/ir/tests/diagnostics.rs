//! Every diagnostic the text front end can give, pinned byte for byte:
//! one malformed input per error site in the parser and per error
//! `LoopIr` validation returns, each with the exact `Display` of the
//! `ParseError` it must produce (line number and message, or the
//! validation error). Rows that hold two faults pin which one is
//! reported first.

use ltsp_ir::parse_loop;

const M0: &str = r#"m0: "a" [int affine(base=0x0, stride=4) 4B]"#;
const M1: &str = r#"m1: "b" [int affine(base=0x100, stride=4) 4B]"#;

/// A loop named `t` around `lines`: the header is line 1, so `lines[k]`
/// is line `k + 2`.
fn body(lines: &[&str]) -> String {
    format!("loop t {{\n{}\n}}\n", lines.join("\n"))
}

/// A loop whose only reference is `m0: "a" [<inside>]`, loaded by `i0`:
/// the reference is line 2.
fn memref(inside: &str) -> String {
    body(&[&format!(r#"m0: "a" [{inside}]"#), "i0: ld g0 = @m0"])
}

fn check(rows: &[(String, &str)]) {
    let mut failures = Vec::new();
    for (text, want) in rows {
        match parse_loop(text) {
            Ok(_) => failures.push(format!("accepted, want `{want}`:\n{text}")),
            Err(e) if e.to_string() != *want => {
                failures.push(format!("got `{e}`, want `{want}`:\n{text}"))
            }
            Err(_) => {}
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn every_syntax_error_keeps_its_bytes() {
    let rows = [
        // The header.
        (String::new(), "line 1: missing 'loop NAME {' header"),
        (
            "// only a comment\n\n".to_string(),
            "line 1: missing 'loop NAME {' header",
        ),
        (
            "loop t\n}\n".to_string(),
            "line 1: expected '{' after loop name",
        ),
        // Line kinds and ids.
        (body(&["garbage"]), "line 2: unrecognized line 'garbage'"),
        (body(&["x0: y"]), "line 2: unrecognized line 'x0: y'"),
        (
            body(&[r#"mx: "a" [int affine(base=0x0, stride=4) 4B]"#]),
            "line 2: bad memref id 'mx': invalid digit found in string",
        ),
        (
            body(&[r#"m1: "a" [int affine(base=0x0, stride=4) 4B]"#]),
            "line 2: memory references must appear in order",
        ),
        (
            body(&["ix: movl g0 ="]),
            "line 2: bad instruction id 'ix': invalid digit found in string",
        ),
        (
            body(&["i1: movl g0 ="]),
            "line 2: instructions must appear in order",
        ),
        // Reference lines.
        (
            body(&[r#"m0: a [int affine(base=0x0, stride=4) 4B]"#]),
            "line 2: expected quoted reference name",
        ),
        (
            body(&[r#"m0: "a [int affine(base=0x0, stride=4) 4B]"#]),
            "line 2: unterminated reference name",
        ),
        (
            body(&[r#"m0: "a" int affine(base=0x0, stride=4) 4B"#]),
            "line 2: expected [ ... ] reference body",
        ),
        (
            memref("int affine(base=0x0, stride=4)"),
            "line 2: reference body needs data class, pattern, width",
        ),
        (
            memref("chr affine(base=0x0, stride=4) 4B"),
            "line 2: unknown data class 'chr'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4"),
            "line 2: expected width like '4B', got '4'",
        ),
        (
            memref("int affine(base=0x0, stride=4) xB"),
            "line 2: bad width 'xB': invalid digit found in string",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B hint=L1"),
            "line 2: unknown hint 'L1'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8,L2,foo)"),
            "line 2: unknown pf field 'foo='",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8,L2"),
            "line 2: expected ')' in 'pf(d=8,L2'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(L2)"),
            "line 2: missing 'd'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8)"),
            "line 2: pf missing target level",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=x,L2)"),
            "line 2: bad number 'x': invalid digit found in string",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B zz"),
            "line 2: unknown reference attribute 'zz'",
        ),
        // Access patterns and numbers.
        (memref("int affine 4B"), "line 2: expected '(' in 'affine'"),
        (
            memref("int foo(x=1) 4B"),
            "line 2: unknown access pattern 'foo'",
        ),
        (
            memref("int affine(base=0x0) 4B"),
            "line 2: missing 'stride'",
        ),
        (memref("int affine(stride=4) 4B"), "line 2: missing 'base'"),
        (
            memref("int affine(base=0xzz, stride=4) 4B"),
            "line 2: bad hex '0xzz': invalid digit found in string",
        ),
        (
            memref("int affine(base=q, stride=4) 4B"),
            "line 2: bad number 'q': invalid digit found in string",
        ),
        (
            memref("int affine(base=0x0, stride=x) 4B"),
            "line 2: bad integer 'x': invalid digit found in string",
        ),
        (
            memref("int affine(base=99999999999999999999, stride=4) 4B"),
            "line 2: bad number '99999999999999999999': number too large to fit in target type",
        ),
        (
            memref("int symbolic(base=0x0) 4B"),
            "line 2: missing 'stride'",
        ),
        (
            memref("int gather(index=x0, base=0x0, elem=4, region=64) 4B"),
            "line 2: bad memref id 'x0'",
        ),
        (
            memref("int gather(index=m0, base=0x0, region=64) 4B"),
            "line 2: missing 'elem'",
        ),
        (
            memref("int deref(ptr=m0, off=0) 4B"),
            "line 2: missing 'region'",
        ),
        (
            memref("int chase(base=0x0, node=64, region=4096, locality=x) 8B"),
            "line 2: bad locality: invalid float literal",
        ),
        (
            memref("int chase(base=0x0, node=64, region=4096) 8B"),
            "line 2: missing 'locality'",
        ),
        (
            memref("int invariant(address=0x0) 8B"),
            "line 2: missing 'addr'",
        ),
        // Instruction lines.
        (body(&["i0:"]), "line 2: unknown mnemonic ''"),
        (body(&["i0: foo g1 = g0"]), "line 2: unknown mnemonic 'foo'"),
        (
            body(&["i0: (p0 add g1 = g0"]),
            "line 2: unterminated qualifying predicate",
        ),
        (
            body(&[M0, "i0: ld g1 ="]),
            "line 3: memory instruction needs an @mK reference",
        ),
        (body(&[M0, "i0: ld r1 = @m0"]), "line 3: bad register 'r1'"),
        (
            body(&[M0, "i0: ld gx = @m0"]),
            "line 3: bad register index 'gx': invalid digit found in string",
        ),
        (
            body(&["i0: movl g0 =", "i1: add g1 = g0, , g0"]),
            "line 3: bad register ''",
        ),
        (
            body(&["i0: movl g0 =", "i1: add g1 = g0[-1"]),
            "line 3: unclosed carried operand 'g0[-1'",
        ),
        (
            body(&["i0: movl g0 =", "i1: add g1 = g0[-x]"]),
            "line 3: bad omega in 'g0[-x]': invalid digit found in string",
        ),
        (
            body(&["i0: movl g0 =", "i1: (p0[-x]) add g1 = g0"]),
            "line 3: bad omega in 'p0[-x]': invalid digit found in string",
        ),
        (body(&[M0, "i0: ld g1 = @x0"]), "line 3: bad memref id 'x0'"),
        (
            body(&[M0, "i0: ld g1 = @mx"]),
            "line 3: bad memref id 'mx': invalid digit found in string",
        ),
        (
            body(&[M0, "i0: ld g1 = @m0 junk"]),
            "line 3: bad memref id 'm0 junk': invalid digit found in string",
        ),
        // Dependence lines.
        (
            body(&["i0: movl g0 =", "dep i0 -> i0"]),
            "line 3: expected 'dep iA -> iB kind omega=N'",
        ),
        (
            body(&["i0: movl g0 =", "dep i0 => i0 mem-flow omega=1"]),
            "line 3: expected 'dep iA -> iB kind omega=N'",
        ),
        (
            body(&["i0: movl g0 =", "dep i0 -> i0 mem-bad omega=x"]),
            "line 3: unknown dep kind 'mem-bad'",
        ),
        (
            body(&["i0: movl g0 =", "dep x0 -> y0 mem-flow omega=x"]),
            "line 3: bad omega",
        ),
        (
            body(&["i0: movl g0 =", "dep x0 -> y0 mem-flow omega=1"]),
            "line 3: bad instruction id 'x0'",
        ),
        (
            body(&["i0: movl g0 =", "dep i0 -> y0 mem-flow omega=1"]),
            "line 3: bad instruction id 'y0'",
        ),
        // A syntax error on any line wins over an invalid loop.
        (
            body(&["i0: add g1 = g9", "junk"]),
            "line 3: unrecognized line 'junk'",
        ),
    ];
    check(&rows);
}

#[test]
fn every_validation_error_keeps_its_bytes() {
    let gather = |index: &str| {
        format!(r#"m1: "g" [int gather(index={index}, base=0x0, elem=4, region=64) 4B]"#)
    };
    let zero_elem = gather("m0").replace("elem=4", "elem=0");
    let rows = [
        (body(&[]), "invalid loop: loop body is empty"),
        (
            body(&["i0: movl g0 =", "i1: movl g0 ="]),
            "invalid loop: register g0 defined by both i0 and i1",
        ),
        (
            body(&["i0: movl g0 =", "i1: movl g1 =", "i2: movl g1 =", "i3: movl g0 ="]),
            "invalid loop: register g1 defined by both i1 and i2",
        ),
        (
            body(&["i0: movl g0 =", "i1: movl g0 =", "i2: movl g0 ="]),
            "invalid loop: register g0 defined by both i0 and i1",
        ),
        (
            body(&["i0: add g1 = g9"]),
            "invalid loop: instruction i0 reads g9 in the same iteration but no def or live-in exists",
        ),
        (
            body(&["live_in g0", "i0: add g1 = g0[-1]"]),
            "invalid loop: instruction i0 reads g0 in the same iteration but no def or live-in exists",
        ),
        (
            body(&["i0: movl g0 =", "i1: (g0) add g1 = g0"]),
            "invalid loop: instruction i1 has a non-predicate qualifying predicate",
        ),
        (
            body(&[M0, "i0: movl g0 = @m0"]),
            "invalid loop: instruction i0 has a memory-reference mismatch",
        ),
        (
            body(&["i0: ld g0 = @m3"]),
            "invalid loop: memory reference m3 does not exist",
        ),
        (
            body(&[M0, &gather("m7"), "i0: ld g0 = @m1"]),
            "invalid loop: memory reference m7 does not exist",
        ),
        (
            body(&[M0, &gather("m0"), "i0: ld g0 = @m1"]),
            "invalid loop: access pattern of m1 depends on m0, which no load reads",
        ),
        // Zero sizes the address stream would divide by (`stride=0`
        // stays legal).
        (
            body(&[M0, &zero_elem, "i0: ld g0 = @m0", "i1: ld g1 = @m1"]),
            "invalid loop: access pattern of m1 has elem=0",
        ),
        (
            memref("int chase(base=0x0, node=0, region=64, locality=0.5) 8B"),
            "invalid loop: access pattern of m0 has node=0",
        ),
        (
            body(&["i0: movl g0 =", "dep i0 -> i4 mem-flow omega=1"]),
            "invalid loop: instruction i4 has a memory-reference mismatch",
        ),
        (
            body(&["i0: movl g0 =", "dep i5 -> i0 mem-flow omega=1"]),
            "invalid loop: instruction i5 has a memory-reference mismatch",
        ),
        (
            body(&["i0: add g0 = g1", "i1: add g1 = g0"]),
            "invalid loop: same-iteration dependence cycle through instruction i0",
        ),
        (
            body(&["i0: movl g0 =", "i1: add g1 = g0, g2", "i2: add g2 = g1"]),
            "invalid loop: same-iteration dependence cycle through instruction i1",
        ),
        (
            body(&[
                M0,
                M1,
                "i0: ld g0 = @m0",
                "i1: st g0 @m1",
                "dep i1 -> i0 mem-flow omega=0",
            ]),
            "invalid loop: same-iteration dependence cycle through instruction i0",
        ),
        (
            body(&[
                "i0: movl g0 =",
                "i1: add g1 = g0, g3",
                "i2: add g2 = g1",
                "i3: add g3 = g2",
                "dep i2 -> i1 mem-flow omega=0",
            ]),
            "invalid loop: same-iteration dependence cycle through instruction i1",
        ),
        // Which error is reported first.
        (
            body(&[M0, &zero_elem, "i0: ld g0 = @m1"]),
            "invalid loop: access pattern of m1 has elem=0",
        ),
        (
            body(&["i0: add g0 = g9", "i1: movl g0 ="]),
            "invalid loop: register g0 defined by both i0 and i1",
        ),
        (
            body(&["i0: movl g5 =", "i1: (g5) add g1 = g9"]),
            "invalid loop: instruction i1 reads g9 in the same iteration but no def or live-in exists",
        ),
        (
            body(&["i0: (g5) add g1 = g9"]),
            "invalid loop: instruction i0 reads g5 in the same iteration but no def or live-in exists",
        ),
        (
            body(&[M0, "i0: movl g0 = @m0", "i1: add g1 = g9"]),
            "invalid loop: instruction i1 reads g9 in the same iteration but no def or live-in exists",
        ),
        (
            body(&["i0: (g0) movl g0 =", "i1: ld g1 = @m2"]),
            "invalid loop: instruction i0 has a non-predicate qualifying predicate",
        ),
        (
            body(&[
                M0,
                &gather("m0"),
                "i0: ld g0 = @m1",
                "i1: add g1 = g2",
                "i2: add g2 = g1",
                "dep i0 -> i7 mem-flow omega=1",
            ]),
            "invalid loop: access pattern of m1 depends on m0, which no load reads",
        ),
        (
            body(&[
                "i0: add g1 = g2",
                "i1: add g2 = g1",
                "dep i0 -> i7 mem-flow omega=1",
            ]),
            "invalid loop: instruction i7 has a memory-reference mismatch",
        ),
    ];
    check(&rows);
}

/// Text `Display` never prints is refused, each on its own line, where
/// the parser once dropped or rewrote it.
#[test]
fn text_display_never_prints_is_refused() {
    let rows = [
        (
            body(&["i0: movl g1 =", "i1: add g2 = g1[-1]junk"]),
            "line 3: unexpected text after ']' in 'g1[-1]junk'",
        ),
        (
            memref("int affine(base=0x0, stride=4)zz 4B"),
            "line 2: unexpected text after ')': 'zz'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8,L2)x"),
            "line 2: unexpected text after ')': 'x'",
        ),
        (
            body(&[r#"m0: junk "a" [int affine(base=0x0, stride=4) 4B]"#]),
            "line 2: expected quoted reference name",
        ),
        (
            "loop t {\n  i0: movl g0 =\n}\n\n// done\ntrailing\n".to_string(),
            "line 6: text after the closing '}'",
        ),
        (
            "loop t {\n  i0: movl g0 =\n".to_string(),
            "line 2: missing closing '}'",
        ),
        (
            "loop t {\n  i0: movl g0 =\nloop y {\n}\n".to_string(),
            "line 3: a second 'loop' header",
        ),
        (
            "loop  {\n  i0: movl g0 =\n}\n".to_string(),
            "line 1: empty loop name",
        ),
        (
            "i0: movl g0 =\nloop t {\n}\n".to_string(),
            "line 1: missing 'loop NAME {' header",
        ),
        // Lines in Display's order: one live_in, then mK, iK, dep.
        (
            body(&["i0: ld g0 = @m0", M0]),
            "line 3: out of order: a loop lists live_in once, then mK, iK and dep lines",
        ),
        (
            body(&["live_in g0", "live_in g1", "i0: add g2 = g0, g1"]),
            "line 3: out of order: a loop lists live_in once, then mK, iK and dep lines",
        ),
        (
            body(&[M0, "dep i0 -> i0 mem-flow omega=1", "i0: ld g0 = @m0"]),
            "line 4: out of order: a loop lists live_in once, then mK, iK and dep lines",
        ),
        // Arguments in their printed places, each once.
        (
            memref("int affine(stride=4, base=0x0) 4B"),
            "line 2: expected 'base=' at 'stride=4'",
        ),
        (
            memref("int symbolic(base=0x0, stride=4) 4B"),
            "line 2: expected 'stride~' at 'stride=4'",
        ),
        (
            memref("int affine(base=0x0, stride=4, base=0x8) 4B"),
            "line 2: unexpected argument 'base=0x8'",
        ),
        (
            memref("int affine(base=0x0, stride=4, foo=1) 4B"),
            "line 2: unexpected argument 'foo=1'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8,L2,L3)"),
            "line 2: unexpected argument 'L3'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8,reduced)"),
            "line 2: unexpected argument 'reduced'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B hint=L2 hint=L3"),
            "line 2: repeated or misplaced attribute 'hint=L3'",
        ),
        (
            memref("int affine(base=0x0, stride=4) 4B pf(d=8,L2) hint=L2"),
            "line 2: repeated or misplaced attribute 'hint=L2'",
        ),
        (
            memref("int gather(index=m0, base=0x0, elem=4294967300, region=64) 4B"),
            "line 2: bad number '4294967300': out of range integral type conversion attempted",
        ),
    ];
    check(&rows);
}

/// A load defines a register; a store or prefetch does not.
#[test]
fn memory_opcodes_and_destinations_agree() {
    let rows = [
        (
            body(&["live_in g0", M0, "i0: st g1 = g0 @m0", "i1: add g2 = g1, g0"]),
            "invalid loop: instruction i0: a load must define a register, a store or prefetch must not",
        ),
        (
            body(&[M0, "i0: ld @m0"]),
            "invalid loop: instruction i0: a load must define a register, a store or prefetch must not",
        ),
        (
            body(&[M0, "i0: ld g0 = @m0", "i1: lfetch g1 = @m0"]),
            "invalid loop: instruction i1: a load must define a register, a store or prefetch must not",
        ),
    ];
    check(&rows);

    // Nothing that builds loops writes either form.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../loops");
    let mut loops: Vec<ltsp_ir::LoopIr> = std::fs::read_dir(corpus)
        .expect("the loop corpus")
        .map(|e| std::fs::read_to_string(e.expect("entry").path()).expect("readable"))
        .map(|text| parse_loop(&text).expect("the corpus parses"))
        .collect();
    assert_eq!(loops.len(), 17, "the whole corpus");
    loops.extend(
        ltsp_workloads::kernel_library()
            .into_iter()
            .map(|(_, lp)| lp),
    );
    loops.extend((0..500).map(ltsp_workloads::random_loop));
    loops.extend((3..=5).map(|s| ltsp_workloads::scheduling_heavy("heavy", s, 12)));
    for lp in &loops {
        for inst in lp.insts().iter().filter(|i| i.mem().is_some()) {
            let load = inst.op().is_load();
            assert_eq!(load, inst.dst().is_some(), "{}: {inst}", lp.name());
        }
    }
}
