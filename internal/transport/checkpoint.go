package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/tensor"
)

// A Checkpoint captures everything the server needs to resume a killed
// session at a round boundary: the global model, the rFedAvg+ δ table with
// its per-row staleness ages, the per-round loss history, and the index of
// the next round to run. Float payloads are read with tensor.DecodeFloats,
// which grows its output only as bytes arrive.
type Checkpoint struct {
	// Round is the next round index (i.e. the number of completed rounds).
	Round int
	// Global is the aggregated model at the end of round Round-1.
	Global []float64
	// DeltaRows is the δ table (nil for plain FedAvg sessions). Slots whose
	// client never reported a map hold a nil row; the encoding writes only
	// the non-nil rows, so checkpoint bytes scale with the occupied slots,
	// not the slot count.
	DeltaRows [][]float64
	// DeltaAges[k] is how many rounds ago row k was last refreshed (dense in
	// memory; on disk it is the ticks default plus exceptions).
	DeltaAges []int
	// DeltaTicks is the δ table's round counter — the age every never-Set
	// row reports, and the default age the sparse encoding assumes.
	DeltaTicks int
	// RoundLosses is the loss history of the completed rounds.
	RoundLosses []float64
	// UpdateAges[k] is how many rounds ago slot k's model update was last
	// aggregated.
	UpdateAges []int
	// UpdateTicks is the update-age track's round counter.
	UpdateTicks int
	// Buffered holds the async mode's parked-but-unaggregated late updates,
	// so a resumed session folds exactly what the killed one would have.
	Buffered []BufferedUpdate
}

const (
	ckptMagic   = 0x52464350 // "RFCP"
	ckptVersion = 3
	// ckptMaxCount bounds every length field read from disk so a corrupt
	// header cannot force a huge allocation.
	ckptMaxCount = 1 << 24
	// ckptMaxSlots bounds the two slot counts (δ rows, update ages): the
	// reader allocates slot-sized slices before reading any byte that backs
	// them, so forged counts cost at most 40 MiB (32 for the δ rows and their
	// ages, 8 for the update ages). 2²⁰ slots is over 10× the 100k-client
	// scale target.
	ckptMaxSlots = 1 << 20
)

// Write writes the checkpoint to w in one Write call.
func (ck *Checkpoint) Write(w io.Writer) error {
	img, err := ck.appendTo(nil)
	if err != nil {
		return err
	}
	if _, err := w.Write(img); err != nil {
		return fmt.Errorf("transport: checkpoint write: %w", err)
	}
	return nil
}

// appendTo appends the image of ck to dst. It only reads ck's
// slices, so ck may be a view of live session state.
func (ck *Checkpoint) appendTo(dst []byte) ([]byte, error) {
	// Reserve an upper bound up front: growing a fresh buffer by doubling
	// costs several times the image in garbage and copies.
	need := 64 + 8*(len(ck.Global)+len(ck.RoundLosses)+len(ck.DeltaAges)+len(ck.UpdateAges))
	for _, row := range ck.DeltaRows {
		need += 8 * len(row)
	}
	for _, b := range ck.Buffered {
		need += 20 + 8*len(b.Params)
	}
	dst = slices.Grow(dst, need)
	le := binary.LittleEndian
	for _, v := range [...]int{ckptMagic, ckptVersion, ck.Round, len(ck.Global), len(ck.DeltaRows), len(ck.RoundLosses)} {
		dst = le.AppendUint32(dst, uint32(v))
	}
	dst = appendFloats(dst, ck.Global)
	if len(ck.DeltaRows) > 0 {
		// Sparse δ section: dim, the ticks default age, then one
		// (slot, age, row) entry per occupied row — never-Set slots cost
		// nothing — then (slot, age) exceptions for unoccupied slots whose
		// age differs from the ticks default.
		dim, occ := 0, 0
		for _, row := range ck.DeltaRows {
			if row == nil {
				continue
			}
			if dim == 0 {
				dim = len(row)
			}
			occ++
		}
		dst = le.AppendUint32(dst, uint32(dim))
		dst = le.AppendUint32(dst, uint32(ck.DeltaTicks))
		dst = le.AppendUint32(dst, uint32(occ))
		for k, row := range ck.DeltaRows {
			if row == nil {
				continue
			}
			if len(row) != dim {
				return nil, fmt.Errorf("transport: checkpoint δ row %d has %d dims, want %d", k, len(row), dim)
			}
			age := 0
			if k < len(ck.DeltaAges) {
				age = ck.DeltaAges[k]
			}
			dst = le.AppendUint32(dst, uint32(k))
			dst = le.AppendUint32(dst, uint32(age))
			dst = appendFloats(dst, row)
		}
		dst = appendAgeExceptions(dst, ck.DeltaRows, ck.DeltaAges, ck.DeltaTicks)
	}
	dst = appendFloats(dst, ck.RoundLosses)
	// Update-age section: slot count, the ticks
	// default, then (slot, age) exceptions — a steady-state session where
	// most slots never delivered writes a handful of pairs, not N ages.
	dst = le.AppendUint32(dst, uint32(len(ck.UpdateAges)))
	if len(ck.UpdateAges) > 0 {
		dst = le.AppendUint32(dst, uint32(ck.UpdateTicks))
		dst = appendAgeExceptions(dst, nil, ck.UpdateAges, ck.UpdateTicks)
	}
	dst = le.AppendUint32(dst, uint32(len(ck.Buffered)))
	for _, b := range ck.Buffered {
		dst = le.AppendUint32(dst, uint32(b.Client))
		dst = le.AppendUint32(dst, uint32(b.Round))
		dst = le.AppendUint64(dst, math.Float64bits(b.Loss))
		dst = le.AppendUint32(dst, uint32(len(b.Params)))
		dst = appendFloats(dst, b.Params)
	}
	return dst, nil
}

// appendFloats appends v in the little-endian form tensor.DecodeFloats reads.
func appendFloats(dst []byte, v []float64) []byte {
	if hostLE {
		return append(dst, floatBytes(v, true)...)
	}
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// appendAgeExceptions appends the sparse age block: a count, then a (slot,
// age) pair for every slot whose age differs from the ticks default. When
// rows is non-nil, slots with a non-nil row are skipped — their age already
// rode along with their row entry.
func appendAgeExceptions(dst []byte, rows [][]float64, ages []int, ticks int) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	nExc := 0
	for k, age := range ages {
		if age == ticks || (rows != nil && rows[k] != nil) {
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(age))
		nExc++
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(nExc))
	return dst
}

// readAgeExceptions reads the sparse age block into ages (already filled
// with the ticks default).
func readAgeExceptions(r io.Reader, ages []int, what string) error {
	nExc, err := readCount(r, what+" count")
	if err != nil {
		return err
	}
	if nExc > len(ages) {
		return fmt.Errorf("transport: implausible checkpoint %s count %d for %d slots", what, nExc, len(ages))
	}
	for j := 0; j < nExc; j++ {
		var pair [8]byte
		if _, err := io.ReadFull(r, pair[:]); err != nil {
			return fmt.Errorf("transport: checkpoint %s: %w", what, err)
		}
		k := int(binary.LittleEndian.Uint32(pair[0:]))
		if k < 0 || k >= len(ages) {
			return fmt.Errorf("transport: checkpoint %s slot %d outside [0, %d)", what, k, len(ages))
		}
		ages[k] = int(binary.LittleEndian.Uint32(pair[4:]))
	}
	return nil
}

// ReadCheckpoint parses a checkpoint written by Write.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != ckptMagic {
		return nil, fmt.Errorf("transport: not a checkpoint (bad magic)")
	}
	if version := binary.LittleEndian.Uint32(hdr[4:]); version != ckptVersion {
		return nil, fmt.Errorf("transport: checkpoint version %d, this build reads only version %d", version, ckptVersion)
	}
	round := int(binary.LittleEndian.Uint32(hdr[8:]))
	np := int(binary.LittleEndian.Uint32(hdr[12:]))
	rows := int(binary.LittleEndian.Uint32(hdr[16:]))
	nl := int(binary.LittleEndian.Uint32(hdr[20:]))
	if round > ckptMaxCount || np > ckptMaxCount || rows > ckptMaxSlots || nl > ckptMaxCount {
		return nil, fmt.Errorf("transport: implausible checkpoint counts (round=%d params=%d rows=%d losses=%d)", round, np, rows, nl)
	}
	ck := &Checkpoint{Round: round}
	var err error
	if ck.Global, err = tensor.DecodeFloats(r, np); err != nil {
		return nil, err
	}
	if rows > 0 {
		// Sparse δ section: dim, ticks default, occupied (slot, age, row)
		// entries, then (slot, age) exceptions for unoccupied slots.
		var dimBuf [4]byte
		if _, err := io.ReadFull(r, dimBuf[:]); err != nil {
			return nil, fmt.Errorf("transport: checkpoint δ dim: %w", err)
		}
		dim := int(binary.LittleEndian.Uint32(dimBuf[:]))
		if dim < 0 || dim > ckptMaxCount {
			return nil, fmt.Errorf("transport: implausible checkpoint δ dim %d", dim)
		}
		ticks, err := readCount(r, "δ ticks")
		if err != nil {
			return nil, err
		}
		occ, err := readCount(r, "δ occupancy")
		if err != nil {
			return nil, err
		}
		if occ > rows {
			return nil, fmt.Errorf("transport: checkpoint claims %d occupied δ rows of %d", occ, rows)
		}
		ck.DeltaTicks = ticks
		ck.DeltaRows = make([][]float64, rows)
		ck.DeltaAges = make([]int, rows)
		for k := range ck.DeltaAges {
			ck.DeltaAges[k] = ticks
		}
		for j := 0; j < occ; j++ {
			var ent [8]byte
			if _, err := io.ReadFull(r, ent[:]); err != nil {
				return nil, fmt.Errorf("transport: checkpoint δ entry: %w", err)
			}
			k := int(binary.LittleEndian.Uint32(ent[0:]))
			if k < 0 || k >= rows {
				return nil, fmt.Errorf("transport: checkpoint δ entry slot %d outside [0, %d)", k, rows)
			}
			ck.DeltaAges[k] = int(binary.LittleEndian.Uint32(ent[4:]))
			if ck.DeltaRows[k], err = tensor.DecodeFloats(r, dim); err != nil {
				return nil, err
			}
		}
		if err := readAgeExceptions(r, ck.DeltaAges, "δ age exception"); err != nil {
			return nil, err
		}
	}
	if ck.RoundLosses, err = tensor.DecodeFloats(r, nl); err != nil {
		return nil, err
	}
	nAges, err := readCount(r, "update-age count")
	if err != nil {
		return nil, err
	}
	if nAges > ckptMaxSlots {
		return nil, fmt.Errorf("transport: implausible checkpoint update-age count %d", nAges)
	}
	if nAges > 0 {
		ticks, err := readCount(r, "update-age ticks")
		if err != nil {
			return nil, err
		}
		ck.UpdateTicks = ticks
		ck.UpdateAges = make([]int, nAges)
		for k := range ck.UpdateAges {
			ck.UpdateAges[k] = ticks
		}
		if err := readAgeExceptions(r, ck.UpdateAges, "update-age exception"); err != nil {
			return nil, err
		}
	}
	nBuf, err := readCount(r, "buffered count")
	if err != nil {
		return nil, err
	}
	for j := 0; j < nBuf; j++ {
		var hdr [16]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("transport: checkpoint buffered header: %w", err)
		}
		b := BufferedUpdate{
			Client: int(binary.LittleEndian.Uint32(hdr[0:])),
			Round:  int(binary.LittleEndian.Uint32(hdr[4:])),
			Loss:   math.Float64frombits(binary.LittleEndian.Uint64(hdr[8:])),
		}
		plen, err := readCount(r, "buffered params len")
		if err != nil {
			return nil, err
		}
		if b.Params, err = tensor.DecodeFloats(r, plen); err != nil {
			return nil, err
		}
		ck.Buffered = append(ck.Buffered, b)
	}
	return ck, nil
}

// readCount reads one u32 length field, bounded by ckptMaxCount.
func readCount(r io.Reader, what string) (int, error) {
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return 0, fmt.Errorf("transport: checkpoint %s: %w", what, err)
	}
	n := int(binary.LittleEndian.Uint32(u32[:]))
	if n > ckptMaxCount {
		return 0, fmt.Errorf("transport: implausible checkpoint %s %d", what, n)
	}
	return n, nil
}

// SaveCheckpoint writes the checkpoint atomically: to a temp file in the
// same directory, then rename, so a server killed mid-write never leaves a
// truncated checkpoint behind.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	img, err := ck.appendTo(nil)
	if err != nil {
		return err
	}
	return saveImage(path, img)
}

// saveImage is SaveCheckpoint for an already encoded image: one write(2).
func saveImage(path string, img []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("transport: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		return fmt.Errorf("transport: checkpoint write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("transport: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("transport: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("transport: open checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
