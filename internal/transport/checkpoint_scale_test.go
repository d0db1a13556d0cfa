package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// A 10k-slot checkpoint with sparse δ occupancy must round-trip bitwise:
// occupied rows and their ages come back exactly, never-joined slots stay
// nil, and the off-default ages of unoccupied slots survive via the
// exception list.
func TestCheckpointSparseRoundTrip10k(t *testing.T) {
	const n, dim, occ = 10_000, 64, 53
	rng := rand.New(rand.NewSource(3))
	ck := &Checkpoint{
		Round:       41,
		Global:      make([]float64, dim),
		DeltaRows:   make([][]float64, n),
		DeltaAges:   make([]int, n),
		DeltaTicks:  41,
		RoundLosses: []float64{1.5, 1.2, 0.9},
		UpdateAges:  make([]int, n),
		UpdateTicks: 41,
	}
	for j := range ck.Global {
		ck.Global[j] = rng.NormFloat64()
	}
	// Never-joined slots report age == ticks; occupied ones a fresh age.
	for k := range ck.DeltaAges {
		ck.DeltaAges[k] = ck.DeltaTicks
		ck.UpdateAges[k] = ck.UpdateTicks
	}
	occupied := rng.Perm(n)[:occ]
	for _, k := range occupied {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		ck.DeltaRows[k] = row
		ck.DeltaAges[k] = rng.Intn(8)
		ck.UpdateAges[k] = rng.Intn(8)
	}
	// A couple of unoccupied slots with off-default ages (a client that
	// joined, aged, and was evicted before ever reporting a δ map).
	ck.DeltaAges[17] = 3
	ck.UpdateAges[23] = 5

	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 41 || got.DeltaTicks != 41 || got.UpdateTicks != 41 {
		t.Fatalf("counters: round=%d δticks=%d updticks=%d, want 41/41/41",
			got.Round, got.DeltaTicks, got.UpdateTicks)
	}
	if len(got.DeltaRows) != n || len(got.DeltaAges) != n || len(got.UpdateAges) != n {
		t.Fatalf("lengths: rows=%d δages=%d updages=%d, want %d",
			len(got.DeltaRows), len(got.DeltaAges), len(got.UpdateAges), n)
	}
	for k := 0; k < n; k++ {
		if (got.DeltaRows[k] == nil) != (ck.DeltaRows[k] == nil) {
			t.Fatalf("slot %d occupancy changed across round-trip", k)
		}
		for j, v := range ck.DeltaRows[k] {
			if math.Float64bits(got.DeltaRows[k][j]) != math.Float64bits(v) {
				t.Fatalf("slot %d row differs bitwise at dim %d", k, j)
			}
		}
		if got.DeltaAges[k] != ck.DeltaAges[k] {
			t.Fatalf("slot %d δ age = %d, want %d", k, got.DeltaAges[k], ck.DeltaAges[k])
		}
		if got.UpdateAges[k] != ck.UpdateAges[k] {
			t.Fatalf("slot %d update age = %d, want %d", k, got.UpdateAges[k], ck.UpdateAges[k])
		}
	}

	// Size must scale with the occupied rows, not the slot count: the dense
	// encoding would need ≥ n·dim·8 bytes for rows alone, the sparse file
	// pays per occupied row plus per exception.
	budget := 24 + 8*(dim /* global */ +occ*dim /* rows */ +3 /* losses */) +
		occ*8 /* row entries */ + (occ+2)*8 /* age exceptions */ + 64 /* section headers */
	if buf.Len() > budget {
		t.Fatalf("sparse checkpoint is %d bytes, budget %d (occ=%d of n=%d)", buf.Len(), budget, occ, n)
	}
	if dense := 8 * n * dim; buf.Len() >= dense/100 {
		t.Fatalf("sparse checkpoint is %d bytes, not far below the %d-byte dense row block", buf.Len(), dense)
	}
}

// Growing the slot count with fixed occupancy must leave the checkpoint
// size essentially unchanged — the bytes-follow-occupancy contract.
func TestCheckpointSizeFollowsOccupancy(t *testing.T) {
	build := func(n int) *Checkpoint {
		const dim, occ = 32, 20
		rng := rand.New(rand.NewSource(11))
		ck := &Checkpoint{
			Round:       5,
			Global:      make([]float64, dim),
			DeltaRows:   make([][]float64, n),
			DeltaAges:   make([]int, n),
			DeltaTicks:  5,
			RoundLosses: []float64{1},
			UpdateAges:  make([]int, n),
			UpdateTicks: 5,
		}
		for k := range ck.DeltaAges {
			ck.DeltaAges[k] = 5
			ck.UpdateAges[k] = 5
		}
		for _, k := range rng.Perm(n)[:occ] {
			row := make([]float64, dim)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			ck.DeltaRows[k] = row
			ck.DeltaAges[k] = 1
			ck.UpdateAges[k] = 1
		}
		return ck
	}
	size := func(ck *Checkpoint) int {
		var buf bytes.Buffer
		if err := ck.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	small, large := size(build(1_000)), size(build(100_000))
	if large != small {
		t.Fatalf("checkpoint bytes moved with slot count: %d at 1k slots, %d at 100k", small, large)
	}
}

// Files of an older version are refused by the header alone: the error names
// the version found and the one supported, and nothing is sized from the
// header's counts (a reader that went on would fail on the missing payload
// instead).
func TestCheckpointRefusesOldVersions(t *testing.T) {
	for _, version := range []uint32{1, 2} {
		var hdr [24]byte
		binary.LittleEndian.PutUint32(hdr[0:], ckptMagic)
		binary.LittleEndian.PutUint32(hdr[4:], version)
		binary.LittleEndian.PutUint32(hdr[8:], 9)
		binary.LittleEndian.PutUint32(hdr[12:], ckptMaxCount)
		binary.LittleEndian.PutUint32(hdr[16:], ckptMaxCount)
		binary.LittleEndian.PutUint32(hdr[20:], ckptMaxCount)
		_, err := ReadCheckpoint(bytes.NewReader(hdr[:]))
		want := fmt.Sprintf("checkpoint version %d, this build reads only version %d", version, ckptVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d header: got %v, want an error containing %q", version, err, want)
		}
	}
}
