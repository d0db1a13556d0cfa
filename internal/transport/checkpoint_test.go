package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Round:  7,
		Global: []float64{1, -2, math.Pi},
		DeltaRows: [][]float64{
			{0.5, 0.25},
			{-1, 2},
			{0, 0},
		},
		DeltaAges:   []int{1, 4, 9},
		RoundLosses: []float64{2.5, 2.0, 1.5},
	}
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != ck.Round {
		t.Fatalf("round %d, want %d", got.Round, ck.Round)
	}
	for i, v := range ck.Global {
		if got.Global[i] != v {
			t.Fatal("global mismatch")
		}
	}
	if len(got.DeltaRows) != 3 || got.DeltaRows[1][1] != 2 {
		t.Fatalf("δ rows mismatch: %v", got.DeltaRows)
	}
	for k, age := range ck.DeltaAges {
		if got.DeltaAges[k] != age {
			t.Fatalf("δ ages mismatch: %v", got.DeltaAges)
		}
	}
	if len(got.RoundLosses) != 3 || got.RoundLosses[2] != 1.5 {
		t.Fatalf("losses mismatch: %v", got.RoundLosses)
	}
}

func TestCheckpointFedAvgOmitsDelta(t *testing.T) {
	ck := &Checkpoint{Round: 1, Global: []float64{1}, RoundLosses: []float64{0.5}}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaRows != nil || got.DeltaAges != nil {
		t.Fatal("fedavg checkpoint must not carry a δ table")
	}
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	// Wrong magic.
	if _, err := ReadCheckpoint(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated payload.
	ck := &Checkpoint{Round: 1, Global: []float64{1, 2, 3}}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadCheckpoint(bytes.NewReader(raw[:len(raw)-8])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Implausible count: forge a huge param count on the header.
	forged := append([]byte(nil), raw...)
	forged[12] = 0xFF
	forged[13] = 0xFF
	forged[14] = 0xFF
	forged[15] = 0x7F
	if _, err := ReadCheckpoint(bytes.NewReader(forged)); err == nil {
		t.Fatal("forged count accepted")
	}
	// Missing file.
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// forgedSlotHeader is a checkpoint that claims rows δ slots or ages
// update-age slots and ends right after the fields that size them: 36 bytes
// for the δ form, 32 for the update-age one.
func forgedSlotHeader(rows, ages uint32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, ckptMagic)
	b = le.AppendUint32(b, ckptVersion)
	b = le.AppendUint32(b, 0)    // round
	b = le.AppendUint32(b, 0)    // params
	b = le.AppendUint32(b, rows) // δ slots
	b = le.AppendUint32(b, 0)    // losses
	if rows > 0 {
		b = le.AppendUint32(b, 1) // δ dim
		b = le.AppendUint32(b, 0) // δ ticks
		b = le.AppendUint32(b, 0) // occupied rows
		return b
	}
	b = le.AppendUint32(b, ages)
	return le.AppendUint32(b, 0) // update-age ticks
}

// A header that claims many slots and carries none of their bytes fails
// within a 64 MiB allocation budget: the slot slices are sized from counts
// no byte backs, so those counts are bounded by ckptMaxSlots, not by the
// 2²⁴ ckptMaxCount every other length gets.
func TestCheckpointForgedSlotCountsAllocateLittle(t *testing.T) {
	const budget = 64 << 20
	for _, raw := range [][]byte{
		forgedSlotHeader(1<<24, 0),
		forgedSlotHeader(ckptMaxSlots, 0),
		forgedSlotHeader(0, 1<<24),
		forgedSlotHeader(0, ckptMaxSlots),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCheckpoint(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte forged checkpoint accepted", len(raw))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > budget {
			t.Fatalf("%d-byte forged checkpoint allocated %.1f MiB before failing (%v), want ≤ 64",
				len(raw), float64(d)/(1<<20), err)
		}
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint reader: every
// input must come back as an error or as a checkpoint that re-encodes, and
// whose image reads back to itself — never a panic.
func FuzzReadCheckpoint(f *testing.F) {
	var golden bytes.Buffer
	if err := goldenCheckpoint().Write(&golden); err != nil {
		f.Fatal(err)
	}
	img := golden.Bytes()
	f.Add(img)
	for cut := 0; cut < len(img); cut += 4 {
		f.Add(append([]byte(nil), img[:cut]...))
	}
	f.Add(forgedSlotHeader(ckptMaxSlots, 0))
	f.Add(forgedSlotHeader(0, ckptMaxSlots))

	f.Fuzz(func(t *testing.T, raw []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			if ck != nil {
				t.Fatalf("error %v came with a checkpoint", err)
			}
			return
		}
		img, err := ck.appendTo(nil)
		if err != nil {
			t.Fatalf("a checkpoint that read does not re-encode: %v", err)
		}
		back, err := ReadCheckpoint(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("the re-encoded image does not read: %v", err)
		}
		if again, err := back.appendTo(nil); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("re-encoding is not a fixed point (%v)", err)
		}
	})
}
