package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"microscope/sim/cpu/cputest"
)

// storageOf lists, by field path, the slices reachable from v through
// pointers, struct fields and arrays that hold storage.
func storageOf(v any) []string {
	var held []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Slice:
			if !v.IsNil() {
				held = append(held, path)
			}
		}
	}
	walk(reflect.ValueOf(v), reflect.TypeOf(v).Elem().Name())
	return held
}

// pipelineStorage lists the storage a context's ROB, scheduler and
// branch predictor hold.
func pipelineStorage(ctx *Context) []string {
	held := storageOf(ctx.rob)
	held = append(held, storageOf(&ctx.sched)...)
	return append(held, storageOf(ctx.bp)...)
}

// An SMT context that never loads a program holds no ROB slab,
// scheduler buffers or predictor tables: not after NewCore, not after
// the other context runs a replay, and not after a snapshot round trip.
func TestIdleContextHoldsNoPipelineStorage(t *testing.T) {
	as, err := cputest.NewDataSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(DefaultConfig(), as.Phys())
	idle := func(when string, c *Core) {
		t.Helper()
		if held := pipelineStorage(c.Context(1)); len(held) > 0 {
			t.Errorf("%s: the idle context holds %v", when, held)
		}
	}
	idle("after NewCore", c)

	ctx := c.Context(0)
	ctx.SetAddressSpace(as)
	ctx.SetProgram(replayWindowProgram(), 0)
	ctx.Predictor().Prime(0, true, 0)
	replayHandler(c, as)
	c.Run(20_000)
	if n := ctx.Stats().PageFaults; n < 2 {
		t.Fatalf("context 0 replayed %d times, want at least 2", n)
	}
	if len(pipelineStorage(ctx)) == 0 {
		t.Fatal("the running context holds no pipeline storage")
	}
	idle("after context 0 replays", c)

	s, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCore(DefaultConfig(), as.Phys())
	if err := fresh.Restore(s); err != nil {
		t.Fatal(err)
	}
	idle("after a restore onto a fresh core", fresh)
	again, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Error("the image changed across a restore onto a fresh core")
	}
	if err := c.Restore(s); err != nil {
		t.Fatal(err)
	}
	idle("after a restore onto the same core", c)
}
