package experiments

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"microscope/crypto/taes"
)

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance property of the sweep layer: a parallel AES extraction
// sweep is byte-identical to the serial one for workers=1 vs workers=8.
func TestExtractionSweepWorkerInvariance(t *testing.T) {
	cfg := DefaultAESConfig()
	pts := [][]byte{TrialPlaintext(0), TrialPlaintext(1), TrialPlaintext(2)}
	serial, err := RunAESExtractionSweep(cfg, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAESExtractionSweep(cfg, pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual rather than a byte compare of an encoding: gob serializes
	// maps in random iteration order, which would make equal results look
	// different. The structural comparison is exact.
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("workers=8 sweep differs from workers=1 sweep")
	}
	for i, ext := range serial {
		if ok, diff := ext.Match(); !ok {
			t.Errorf("trial %d extraction mismatch: %s", i, diff)
		}
	}
}

func TestTrialPlaintext(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		pt := TrialPlaintext(i)
		if len(pt) != taes.BlockSize {
			t.Fatalf("trial %d: plaintext length %d", i, len(pt))
		}
		if !bytes.Equal(pt, TrialPlaintext(i)) {
			t.Fatalf("trial %d: not deterministic", i)
		}
		seen[string(pt)] = true
	}
	if len(seen) != 32 {
		t.Errorf("only %d distinct plaintexts in 32 trials", len(seen))
	}
}

func TestAESKeyByteSweep(t *testing.T) {
	cfg := DefaultAESConfig()
	res, err := RunAESKeyByteSweep(cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recovered %d/16 nibbles, faults=%d", res.RecoveredExactly(), res.Faults)
	for b := 0; b < 16; b++ {
		// The true nibble can never be eliminated — its access happened.
		if res.Candidates[b]&(1<<uint(res.TruthHi[b])) == 0 {
			t.Errorf("byte %d: truth nibble %x eliminated (candidates %016b)",
				b, res.TruthHi[b], res.Candidates[b])
		}
	}
	if !res.Complete() {
		t.Errorf("8 trials left ambiguity: recovered %d/16, candidates %v",
			res.RecoveredExactly(), res.Candidates)
	}
	if res.Faults == 0 {
		t.Error("fault budget not accumulated")
	}

	// Worker invariance for the composite sweep as well.
	res8, err := RunAESKeyByteSweep(cfg, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := RunAESKeyByteSweep(cfg, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, res1), gobBytes(t, res8)) {
		t.Error("key sweep differs between workers=1 and workers=8")
	}

	if _, err := RunAESKeyByteSweep(cfg, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestFig10SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial fig10 sweep")
	}
	cfg := DefaultFig10Config()
	cfg.Samples = 1500
	res, err := RunFig10Sweep(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	if res.Detected < 2 {
		t.Errorf("secret detected in only %d/3 trials", res.Detected)
	}
	if res.Mul.N != 3*cfg.Samples || res.Div.N != 3*cfg.Samples {
		t.Errorf("merged sample counts %d/%d, want %d", res.Mul.N, res.Div.N, 3*cfg.Samples)
	}
	if res.Separation.N != 3 {
		t.Errorf("separation summary n=%d", res.Separation.N)
	}
	if _, err := RunFig10Sweep(cfg, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

// A non-positive monitor parameter is an error naming the field, from
// the single-run and the forked-sweep entry points alike, instead of a
// panic inside a sweep worker.
func TestFig10RejectsNonPositiveMonitorParams(t *testing.T) {
	for _, field := range []string{"Samples", "Cont"} {
		cfg := DefaultFig10Config()
		if field == "Samples" {
			cfg.Samples = 0
		} else {
			cfg.Cont = 0
		}
		if _, err := RunFig10(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("RunFig10 with %s = 0: err = %v, want one naming %s", field, err, field)
		}
		if _, err := RunFig10Sweep(cfg, 2); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("RunFig10Sweep with %s = 0: err = %v, want one naming %s", field, err, field)
		}
	}
}
