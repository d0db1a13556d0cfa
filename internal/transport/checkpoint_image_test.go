package transport

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

var updateGoldenCkpt = flag.Bool("update-golden-ckpt", false,
	"rewrite testdata/golden_ckpt_v3.bin (run on the commit whose encoder the file must stay equal to)")

// goldenCheckpoint is a fixed state that walks every branch of the v3
// encoding: nil and occupied δ rows, a δ-age exception on an unoccupied slot,
// update-age exceptions, and two buffered updates.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		Round:  9,
		Global: []float64{1, math.Copysign(0, -1), math.Pi, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		DeltaRows: [][]float64{
			nil, {0.5, -0.25, 3}, nil, {-1, 2, 1e-300}, {7, 8, 9}, nil, nil,
		},
		DeltaAges:   []int{9, 1, 9, 0, 4, 3, 9},
		DeltaTicks:  9,
		RoundLosses: []float64{2.5, 2.0, 1.5},
		UpdateAges:  []int{9, 1, 6, 1, 2, 9, 0},
		UpdateTicks: 9,
		Buffered: []BufferedUpdate{
			{Client: 2, Round: 7, Loss: 0.75, Params: []float64{1, 2, 3, 4, 5}},
			{Client: 5, Round: 8, Loss: 1.25, Params: []float64{-1, -2, -3, -4, -5}},
		},
	}
}

// testdata/golden_ckpt_v3.bin was written by the encoder this one replaced
// (per-field writes into the file): the image must not move by a byte.
func TestCheckpointGoldenV3(t *testing.T) {
	const path = "testdata/golden_ckpt_v3.bin"
	var buf bytes.Buffer
	if err := goldenCheckpoint().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGoldenCkpt {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v3 image moved: %d bytes, golden has %d", buf.Len(), len(want))
	}
	got, err := ReadCheckpoint(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenCheckpoint()) {
		t.Fatalf("golden file reads back as\n%+v\nwant\n%+v", got, goldenCheckpoint())
	}
}

// countingWriter counts Write calls: each is a write(2) when w is a file.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

func TestCheckpointIsOneWrite(t *testing.T) {
	ck := goldenCheckpoint()
	var cw countingWriter
	if err := ck.Write(&cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("Checkpoint.Write made %d Write calls, want 1", cw.writes)
	}
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, cw.Bytes()) {
		t.Fatal("SaveCheckpoint's file differs from the Write image")
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// ckptSession builds the part of a session that checkpoint reads: n slots of
// which occ have reported a δ row and an update, and one parked update.
func ckptSession(t testing.TB, n, occ int) *session {
	const dim, params = 48, 64
	s := &session{
		cfg: ServerConfig{Algorithm: AlgoRFedAvgPlus, FeatureDim: dim,
			CheckpointPath: filepath.Join(t.TempDir(), "session.ckpt")},
		conns:    make([]*peer, n),
		global:   make([]float64, params),
		table:    core.NewDeltaTable(n, dim),
		res:      &ServerResult{RoundLosses: []float64{3, 2, 1}},
		buffered: make([]*BufferedUpdate, n),
		updAges:  core.NewAgeTrack(n),
	}
	s.metrics = newServerMetrics(telemetry.NewRegistry(), s.cfg.Algorithm)
	row := make([]float64, dim)
	for tick := 0; tick < 3; tick++ {
		for k := 0; k < occ; k++ {
			if (k+tick)%3 == 0 {
				continue // rows of mixed age
			}
			for j := range row {
				row[j] = float64(k*dim+j) + 0.5*float64(tick)
			}
			s.table.Set(k*(n/occ), row)
			s.updAges.Reset(k * (n / occ))
		}
		s.table.Tick()
		s.updAges.Tick()
	}
	for j := range s.global {
		s.global[j] = 1 / float64(j+1)
	}
	s.buffered[n-1] = &BufferedUpdate{Client: n - 1, Round: 2, Loss: 0.5, Params: make([]float64, params)}
	return s
}

// deepCheckpoint captures a session the way checkpoint did before it encoded
// from views: every slice copied out first.
func deepCheckpoint(s *session, nextRound int) *Checkpoint {
	ck := &Checkpoint{
		Round:       nextRound,
		Global:      append([]float64(nil), s.global...),
		RoundLosses: append([]float64(nil), s.res.RoundLosses...),
		DeltaRows:   make([][]float64, len(s.conns)),
		DeltaAges:   make([]int, len(s.conns)),
		DeltaTicks:  s.table.Ticks(),
		UpdateAges:  make([]int, s.updAges.Len()),
		UpdateTicks: s.updAges.Ticks(),
	}
	s.table.ForEachRow(func(k int, row []float64) { ck.DeltaRows[k] = append([]float64(nil), row...) })
	for k := range ck.DeltaAges {
		ck.DeltaAges[k] = s.table.Age(k)
	}
	s.updAges.ForEach(func(k, age int) { ck.UpdateAges[k] = age })
	for _, b := range s.buffered { // slot order
		if b == nil {
			continue
		}
		cp := *b
		cp.Params = append([]float64(nil), b.Params...)
		ck.Buffered = append(ck.Buffered, cp)
	}
	return ck
}

// A session's checkpoint is the file the deep-copying capture wrote, its cost
// does not grow with the occupied rows, and a second checkpoint of moved
// state is not stale.
func TestSessionCheckpointFromViews(t *testing.T) {
	allocs := map[int]float64{}
	for _, occ := range []int{16, 1024} {
		s := ckptSession(t, 1024, occ)
		for _, next := range []int{3, 4} {
			s.checkpoint(next)
			var want bytes.Buffer
			if err := deepCheckpoint(s, next).Write(&want); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(s.cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("occ %d round %d: session checkpoint differs from the deep-copy capture (%d vs %d bytes)",
					occ, next, len(got), want.Len())
			}
			// Move the state the views alias before the next checkpoint.
			s.global[0]++
			s.table.Set(0, make([]float64, s.table.Dim))
			s.table.Tick()
			s.updAges.Tick()
			s.res.RoundLosses = append(s.res.RoundLosses, 0.5)
		}
		allocs[occ] = testing.AllocsPerRun(20, func() { s.checkpoint(5) })
	}
	if allocs[16] != allocs[1024] || allocs[16] > 24 {
		t.Fatalf("allocations per checkpoint: %v at 16 rows, %v at 1,024; want equal and ≤ 24", allocs[16], allocs[1024])
	}
}
