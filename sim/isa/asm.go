package isa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Assemble parses the textual assembly syntax documented on the Op
// constants and returns the resulting program. Lines may contain a
// trailing comment introduced by ';' or '#'. A label definition is an
// identifier followed by ':' and may share a line with an instruction.
//
// Example:
//
//	        movi r1, 10
//	loop:   addi r1, r1, -1
//	        bne  r1, r0, loop
//	        halt
func Assemble(src string) (*Program, error) { return TryAssemble(src) }

// TryAssemble is the error-returning assembler entry point. Unlike
// Builder.MustBuild, it never panics, and it reports
// *every* failure — parse errors, duplicate or undefined labels, and
// instruction-validation errors — with the 1-based source line it
// originates from, so front ends like cmd/mscan can point at the
// offending line instead of crashing.
func TryAssemble(src string) (*Program, error) {
	b := NewBuilder()
	var lineOf []int // instruction index -> 1-based source line
	labelLine := make(map[string]int)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Peel off any label definitions.
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(line[:colon])
			if !isIdent(name) {
				return nil, fmt.Errorf("isa: line %d: bad label %q", lineNo+1, name)
			}
			if prev, dup := labelLine[name]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q (first defined on line %d)",
					lineNo+1, name, prev)
			}
			labelLine[name] = lineNo + 1
			b.Label(name)
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleLine(b, line); err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo+1, err)
		}
		for len(lineOf) < len(b.instrs) {
			lineOf = append(lineOf, lineNo+1)
		}
	}
	// Attribute unresolved forward references to the line that used them.
	for idx, name := range b.fixups {
		if _, ok := b.labels[name]; !ok {
			return nil, fmt.Errorf("isa: line %d: undefined label %q", lineOf[idx], name)
		}
	}
	p, err := b.Build()
	if err == nil {
		return p, nil
	}
	// The remaining Build failures are per-instruction validation errors;
	// Build has already patched branch targets into b.instrs, so re-check
	// instruction by instruction to recover the source line.
	q := &Program{Instrs: b.instrs, Labels: b.labels}
	for i := range q.Instrs {
		if verr := q.ValidateAt(i); verr != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineOf[i], verr)
		}
	}
	return nil, err
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		return s[:i]
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var mnemonics = func() map[string]Op {
	m := make(map[string]Op, int(opMax))
	for op := Op(0); op < opMax; op++ {
		m[op.String()] = op
	}
	return m
}()

func assembleLine(b *Builder, line string) error {
	line = strings.TrimSpace(strings.ReplaceAll(line, "\t", " "))
	fields := strings.SplitN(line, " ", 2)
	mn := strings.ToLower(fields[0])
	op, ok := mnemonics[mn]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	var args []string
	if len(fields) == 2 {
		for _, a := range strings.Split(fields[1], ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	want, got := arity(op), len(args)
	if got != want {
		return fmt.Errorf("%s: want %d operands, got %d", mn, want, got)
	}
	in := Instr{Op: op}
	switch op {
	case OpNop, OpFence, OpTxEnd, OpTxAbort, OpHalt:
	case OpMovImm, OpFLoadImm:
		return asmRegImm(b, op, args)
	case OpMov, OpFMov:
		rd, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1 = rd, rs
	case OpAddImm, OpAndImm, OpShlImm, OpShrImm:
		rd, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Imm = rd, rs, imm
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpFAdd, OpFMul, OpFDiv:
		rd, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		rs1, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		rs2, err := ParseReg(args[2])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2
	case OpLoad, OpLoad32, OpLoadF:
		rd, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		imm, base, err := parseMem(args[1])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Imm = rd, base, imm
	case OpStore, OpStore32, OpStoreF:
		rs, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		imm, base, err := parseMem(args[1])
		if err != nil {
			return err
		}
		in.Rs2, in.Rs1, in.Imm = rs, base, imm
	case OpBeq, OpBne, OpBlt, OpBge:
		rs1, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		rs2, err := ParseReg(args[1])
		if err != nil {
			return err
		}
		in.Rs1, in.Rs2 = rs1, rs2
		b.emitTo(in, args[2])
		return nil
	case OpJmp, OpTxBegin:
		b.emitTo(in, args[0])
		return nil
	case OpRdtsc, OpRdrand:
		rd, err := ParseReg(args[0])
		if err != nil {
			return err
		}
		in.Rd = rd
	default:
		return fmt.Errorf("unhandled mnemonic %q", mn)
	}
	b.Emit(in)
	return nil
}

func asmRegImm(b *Builder, op Op, args []string) error {
	rd, err := ParseReg(args[0])
	if err != nil {
		return err
	}
	imm, err := parseImm(args[1])
	if err != nil {
		return err
	}
	b.Emit(Instr{Op: op, Rd: rd, Imm: imm})
	return nil
}

func arity(op Op) int {
	switch op {
	case OpNop, OpFence, OpTxEnd, OpTxAbort, OpHalt:
		return 0
	case OpJmp, OpTxBegin, OpRdtsc, OpRdrand:
		return 1
	case OpMovImm, OpFLoadImm, OpMov, OpFMov,
		OpLoad, OpLoad32, OpLoadF, OpStore, OpStore32, OpStoreF:
		return 2
	default:
		return 3
	}
}

// ParseReg parses a register name as the assembler writes it: r0-r15
// or f0-f15, in either case.
func ParseReg(s string) (Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if len(s) < 2 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n >= NumIntRegs {
			return NoReg, fmt.Errorf("integer register out of range %q", s)
		}
		return Reg(n), nil
	case 'f':
		if n >= NumFloatRegs {
			return NoReg, fmt.Errorf("float register out of range %q", s)
		}
		return FloatBase + Reg(n), nil
	}
	return NoReg, fmt.Errorf("bad register %q", s)
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		// Allow unsigned 64-bit constants (e.g. addresses).
		u, uerr := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int64(u), nil
	}
	return v, nil
}

// parseMem parses "imm(reg)" or "(reg)".
func parseMem(s string) (imm int64, base Reg, err error) {
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open {
		return 0, NoReg, fmt.Errorf("bad memory operand %q", s)
	}
	if immStr := strings.TrimSpace(s[:open]); immStr != "" {
		imm, err = parseImm(immStr)
		if err != nil {
			return 0, NoReg, err
		}
	}
	base, err = ParseReg(s[open+1 : close])
	return imm, base, err
}

// Disassemble renders the program one instruction per line, prefixing
// label definitions.
func Disassemble(p *Program) string {
	byIndex := make(map[int][]string)
	for name, idx := range p.Labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	// Two labels can share an index; emit them in a fixed order so the
	// disassembly does not depend on map iteration order.
	for idx := range byIndex {
		sort.Strings(byIndex[idx])
	}
	var sb strings.Builder
	for i, in := range p.Instrs {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&sb, "%s:\n", l)
		}
		fmt.Fprintf(&sb, "\t%s\n", in)
	}
	return sb.String()
}
