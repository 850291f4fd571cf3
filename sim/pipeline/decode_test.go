package pipeline

import (
	"reflect"
	"testing"

	"microscope/sim/isa"
)

// TestEntryIsPlainValue pins the representation: a ROB entry and the
// decoded record it embeds hold no pointer, string, slice, map,
// interface, chan or func, so the garbage collector never scans the
// slab and a store into an entry takes no write barrier.
func TestEntryIsPlainValue(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Entry{}), reflect.TypeOf(Decoded{})} {
		if path, kind, ok := findReference(typ, typ.Name()); ok {
			t.Errorf("%s holds a %s", path, kind)
		}
	}
}

// findReference returns the path and kind of the first field of typ
// that is, or contains, a reference.
func findReference(typ reflect.Type, path string) (string, reflect.Kind, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return path, typ.Kind(), true
	case reflect.Array:
		return findReference(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, k, ok := findReference(f.Type, path+"."+f.Name); ok {
				return p, k, true
			}
		}
	}
	return "", 0, false
}

// TestDecodeTotal checks the decoded record of every op against the op
// switches it replaces in the cycle engine: the sources, destination
// and port class, and the value semantics it evaluates through.
func TestDecodeTotal(t *testing.T) {
	operands := [][2]uint64{{0, 0}, {1, 2}, {7, 7}, {^uint64(0), 3}, {1 << 63, 1}, {0x4008000000000000, 0x3ff8000000000000}}
	for op := isa.Op(0); int(op) < isa.OpCount; op++ {
		in := isa.Instr{Op: op, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3, Imm: -5, Target: 7, Label: "l"}
		d := Decode(in)
		if d.Op != op || d.Imm != in.Imm || d.Target != in.Target {
			t.Errorf("%s: decoded op/imm/target %s/%d/%d", op, d.Op, d.Imm, d.Target)
		}
		if d.Src != in.Sources() {
			t.Errorf("%s: decoded sources %v, Sources() %v", op, d.Src, in.Sources())
		}
		if d.Dest != in.Dest() {
			t.Errorf("%s: decoded dest %s, Dest() %s", op, d.Dest, in.Dest())
		}
		if d.Class != ClassOf(op) {
			t.Errorf("%s: decoded class %d, ClassOf %d", op, d.Class, ClassOf(op))
		}
		for _, ab := range operands {
			gv, gok := d.Eval(ab[0], ab[1])
			wv, wok := in.Eval(ab[0], ab[1])
			if gv != wv || gok != wok {
				t.Errorf("%s: decoded Eval(%#x, %#x) = %#x, %t; Instr.Eval %#x, %t", op, ab[0], ab[1], gv, gok, wv, wok)
			}
			if d.Taken(ab[0], ab[1]) != in.Taken(ab[0], ab[1]) {
				t.Errorf("%s: decoded Taken(%#x, %#x) disagrees with Instr.Taken", op, ab[0], ab[1])
			}
		}
	}
}
