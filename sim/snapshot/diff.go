package snapshot

import (
	"fmt"
	"reflect"
	"sort"
)

// maxDiffs bounds the number of differences Diff reports; a corrupted
// 64 MB memory image would otherwise produce millions of lines.
const maxDiffs = 64

// Diff compares two machine snapshots field by field and returns one
// human-readable line per difference ("path: a != b"), capped at
// maxDiffs (a final "..." line marks truncation). Byte slices — the
// physical-memory image — are summarized as differing ranges rather
// than per-byte lines. Slices of structs with a `snapdiff:"key"` integer
// field (the sparse cache lines and TLB ways) are paired by that key,
// not by position, so one extra entry is reported as "only in second"
// under its key instead of shifting every entry after it. An empty
// result means the snapshots are structurally identical.
func Diff(a, b *Machine) []string {
	d := &differ{}
	d.walk("", reflect.ValueOf(a), reflect.ValueOf(b))
	return d.out
}

type differ struct {
	out       []string
	truncated bool
}

func (d *differ) add(path, format string, args ...any) {
	if d.truncated {
		return
	}
	if len(d.out) >= maxDiffs {
		d.out = append(d.out, "... (more differences truncated)")
		d.truncated = true
		return
	}
	d.out = append(d.out, path+": "+fmt.Sprintf(format, args...))
}

func (d *differ) walk(path string, a, b reflect.Value) {
	if d.truncated {
		return
	}
	if a.Kind() != b.Kind() {
		d.add(path, "kind %s != %s", a.Kind(), b.Kind())
		return
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		switch {
		case a.IsNil() && b.IsNil():
		case a.IsNil() != b.IsNil():
			d.add(path, "nil-ness %t != %t", a.IsNil(), b.IsNil())
		default:
			d.walk(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported: snapshots are plain exported data
			}
			d.walk(join(path, f.Name), a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.Type().Elem().Kind() == reflect.Uint8 {
			d.diffBytes(path, a.Bytes(), b.Bytes())
			return
		}
		if key, ok := keyField(a.Type().Elem()); ok && d.diffKeyed(path, a, b, key) {
			return
		}
		if a.Len() != b.Len() {
			d.add(path, "length %d != %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		keys := map[string][2]reflect.Value{}
		for _, k := range a.MapKeys() {
			keys[fmt.Sprint(k.Interface())] = [2]reflect.Value{a.MapIndex(k), b.MapIndex(k)}
		}
		for _, k := range b.MapKeys() {
			ks := fmt.Sprint(k.Interface())
			if _, ok := keys[ks]; !ok {
				keys[ks] = [2]reflect.Value{a.MapIndex(k), b.MapIndex(k)}
			}
		}
		names := make([]string, 0, len(keys))
		for ks := range keys {
			names = append(names, ks)
		}
		sort.Strings(names)
		for _, ks := range names {
			va, vb := keys[ks][0], keys[ks][1]
			switch {
			case !va.IsValid():
				d.add(fmt.Sprintf("%s[%s]", path, ks), "only in second")
			case !vb.IsValid():
				d.add(fmt.Sprintf("%s[%s]", path, ks), "only in first")
			default:
				d.walk(fmt.Sprintf("%s[%s]", path, ks), va, vb)
			}
		}
	default:
		av, bv := a.Interface(), b.Interface()
		if !reflect.DeepEqual(av, bv) {
			d.add(path, "%v != %v", av, bv)
		}
	}
}

// keyField returns the index of t's `snapdiff:"key"` field, when t is a
// struct with an integer one.
func keyField(t reflect.Type) (int, bool) {
	if t.Kind() != reflect.Struct {
		return 0, false
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("snapdiff") == "key" && f.Type.Kind() >= reflect.Int && f.Type.Kind() <= reflect.Int64 {
			return i, true
		}
	}
	return 0, false
}

// diffKeyed merges a and b in key order and reports each element found
// on one side only and the fields that differ within each pair. It
// returns false, reporting nothing, when a side's keys do not strictly
// ascend (a malformed image), so that the caller pairs by position.
func (d *differ) diffKeyed(path string, a, b reflect.Value, key int) bool {
	k := func(v reflect.Value, i int) int64 { return v.Index(i).Field(key).Int() }
	for _, v := range []reflect.Value{a, b} {
		for i := 1; i < v.Len(); i++ {
			if k(v, i) <= k(v, i-1) {
				return false
			}
		}
	}
	at := func(k int64) string { return fmt.Sprintf("%s[%s=%d]", path, a.Type().Elem().Field(key).Name, k) }
	i, j := 0, 0
	for i < a.Len() || j < b.Len() {
		switch {
		case j == b.Len() || i < a.Len() && k(a, i) < k(b, j):
			d.add(at(k(a, i)), "only in first")
			i++
		case i == a.Len() || k(b, j) < k(a, i):
			d.add(at(k(b, j)), "only in second")
			j++
		default:
			d.walk(at(k(a, i)), a.Index(i), b.Index(j))
			i, j = i+1, j+1
		}
	}
	return true
}

// diffBytes summarizes differing regions of two byte slices as
// half-open ranges.
func (d *differ) diffBytes(path string, a, b []byte) {
	if len(a) != len(b) {
		d.add(path, "length %d != %d", len(a), len(b))
		return
	}
	i := 0
	for i < len(a) {
		if a[i] == b[i] {
			i++
			continue
		}
		start := i
		for i < len(a) && a[i] != b[i] {
			i++
		}
		d.add(fmt.Sprintf("%s[%#x:%#x]", path, start, i), "%d differing bytes", i-start)
		if d.truncated {
			return
		}
	}
}

func join(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}
