package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// DecodeFloats reads exactly n little-endian float64 values from r — the
// float payload form of the transport checkpoint file. The output grows in
// bounded chunks as bytes actually arrive, so a forged length prefix on a
// truncated stream costs at most one chunk of memory before the read fails —
// never the full 8n bytes the header claims.
func DecodeFloats(r io.Reader, n int) ([]float64, error) {
	const chunkElems = 8 << 10 // 64 KiB reads
	v := make([]float64, 0, min(n, chunkElems))
	buf := make([]byte, 8*min(n, chunkElems))
	for len(v) < n {
		c := min(n-len(v), chunkElems)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, fmt.Errorf("tensor: decode floats: %w", err)
		}
		for i := 0; i < c; i++ {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return v, nil
}
